#ifndef LAMBADA_CLOUD_SCAN_SHARE_H_
#define LAMBADA_CLOUD_SCAN_SHARE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/async.h"
#include "sim/simulator.h"

namespace lambada::cloud {

class CostLedger;
class S3Client;

/// Shared scans: when concurrent queries read the same extent of the same
/// object, only the first requester issues the ranged GET; later arrivals
/// attach to the in-flight request and await the same result buffer. The
/// single physical request's bytes move once, and its cost is split evenly
/// across the queries that shared it (CostLedger::AddSharedS3Get).
///
/// Failure semantics: only the fetcher sees the error (after its client's
/// own retry budget). Waiters wake, and the first of them re-arms the GET
/// as the new fetcher with its own client; the rest attach to the new
/// entry. Each failed round removes one participant, so the recovery loop
/// is bounded.
class SharedScanBroker {
 public:
  /// Counts shared_scan.fetches / attaches / rearms into `metrics`, which
  /// must outlive the broker.
  SharedScanBroker(sim::Simulator* sim, obs::MetricsRegistry* metrics)
      : sim_(sim), metrics_(metrics) {}

  /// Drop-in for S3Client::Get over `client`. The returned buffer is shared
  /// (zero-copy) between all queries that attached to the same fetch.
  sim::Async<Result<BufferPtr>> Get(S3Client* client, std::string bucket,
                                    std::string key, int64_t offset,
                                    int64_t length);

 private:
  struct Entry {
    explicit Entry(sim::Simulator* sim) : done(sim) {}
    sim::Event done;
    Result<BufferPtr> result = Status::Internal("shared fetch pending");
    bool completed = false;
    /// Per-query attribution ledgers of everyone sharing this fetch.
    std::vector<CostLedger*> sharers;
  };

  sim::Simulator* sim_;
  obs::MetricsRegistry* metrics_;
  std::map<std::string, std::shared_ptr<Entry>> inflight_;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_SCAN_SHARE_H_
