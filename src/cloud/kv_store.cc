#include "cloud/kv_store.h"

namespace lambada::cloud {

KeyValueStore::KeyValueStore(sim::Simulator* sim, CostLedger* ledger,
                             const KeyValueStoreConfig& config)
    : sim_(sim), ledger_(ledger), config_(config) {}

Status KeyValueStore::CreateTable(const std::string& table) {
  if (table.empty()) return Status::Invalid("empty table name");
  tables_.try_emplace(table);
  return Status::OK();
}

sim::Async<Status> KeyValueStore::Latency(NetContext& ctx) {
  double latency = ctx.rng->Lognormal(config_.request_latency_median_s,
                                      config_.request_latency_sigma);
  co_await sim::Sleep(sim_, latency);
  co_return Status::OK();
}

sim::Async<Status> KeyValueStore::Put(NetContext ctx, std::string table,
                                      std::string key, std::string value) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    co_return Status::NotFound("no such table: " + table);
  }
  if (value.size() > config_.max_item_bytes) {
    co_return Status::Invalid("item exceeds 400 KB DynamoDB limit");
  }
  co_await Latency(ctx);
  ledger_->AddDdbWrite();
  if (ctx.attribution != nullptr) ctx.attribution->AddDdbWrite();
  it->second[key] = std::move(value);
  co_return Status::OK();
}

sim::Async<Result<std::string>> KeyValueStore::Get(NetContext ctx,
                                                   std::string table,
                                                   std::string key) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    co_return Status::NotFound("no such table: " + table);
  }
  co_await Latency(ctx);
  ledger_->AddDdbRead();
  if (ctx.attribution != nullptr) ctx.attribution->AddDdbRead();
  auto kit = it->second.find(key);
  if (kit == it->second.end()) {
    co_return Status::NotFound("no such item: " + key);
  }
  co_return kit->second;
}

Status KeyValueStore::PutDirect(const std::string& table,
                                const std::string& key, std::string value) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table");
  if (value.size() > config_.max_item_bytes) {
    return Status::Invalid("item exceeds 400 KB DynamoDB limit");
  }
  it->second[key] = std::move(value);
  return Status::OK();
}

Result<std::string> KeyValueStore::GetDirect(const std::string& table,
                                             const std::string& key) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table");
  auto kit = it->second.find(key);
  if (kit == it->second.end()) return Status::NotFound("no such item");
  return kit->second;
}

}  // namespace lambada::cloud
