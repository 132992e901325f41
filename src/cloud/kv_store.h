#ifndef LAMBADA_CLOUD_KV_STORE_H_
#define LAMBADA_CLOUD_KV_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "cloud/cost_ledger.h"
#include "cloud/net.h"
#include "common/status.h"
#include "sim/async.h"
#include "sim/simulator.h"

namespace lambada::cloud {

/// Simulated Amazon DynamoDB: a serverless key-value store used by Lambada
/// for small amounts of shared data (installation metadata, query state).
struct KeyValueStoreConfig {
  double request_latency_median_s = 0.005;
  double request_latency_sigma = 0.3;
  /// DynamoDB limits items to 400 KB.
  size_t max_item_bytes = 400 * 1000;
};

class KeyValueStore {
 public:
  KeyValueStore(sim::Simulator* sim, CostLedger* ledger,
                const KeyValueStoreConfig& config = {});

  /// Creates a table. Idempotent; free control-plane operation.
  Status CreateTable(const std::string& table);

  sim::Async<Status> Put(NetContext ctx, std::string table, std::string key,
                         std::string value);
  sim::Async<Result<std::string>> Get(NetContext ctx, std::string table,
                                      std::string key);

  /// Host-side access (setup/tests; no simulated cost).
  Result<std::string> GetDirect(const std::string& table,
                                const std::string& key) const;
  Status PutDirect(const std::string& table, const std::string& key,
                   std::string value);

 private:
  sim::Async<Status> Latency(NetContext& ctx);

  sim::Simulator* sim_;
  CostLedger* ledger_;
  KeyValueStoreConfig config_;
  std::map<std::string, std::map<std::string, std::string>> tables_;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_KV_STORE_H_
