#include "cloud/scan_share.h"

#include <utility>

#include "cloud/cost_ledger.h"
#include "cloud/object_store.h"

namespace lambada::cloud {

sim::Async<Result<BufferPtr>> SharedScanBroker::Get(S3Client* client,
                                                    std::string bucket,
                                                    std::string key,
                                                    int64_t offset,
                                                    int64_t length) {
  const std::string extent = bucket + "|" + key + "|" +
                             std::to_string(offset) + ":" +
                             std::to_string(length);
  CostLedger* attribution = client->ctx().attribution;
  bool was_waiter = false;
  for (;;) {
    auto it = inflight_.find(extent);
    if (it != inflight_.end()) {
      // Attach: await the in-flight fetch and share its buffer.
      std::shared_ptr<Entry> entry = it->second;
      if (attribution != nullptr) entry->sharers.push_back(attribution);
      metrics_->Add(obs::Metric::kSharedScanAttaches, 1);
      co_await entry->done.Wait();
      if (entry->completed) co_return entry->result;
      // The fetcher failed. Waiters wake in FIFO order; the first finds no
      // in-flight entry and re-arms as the new fetcher, the rest re-attach.
      was_waiter = true;
      continue;
    }

    // Fetch: issue the physical GET through an attribution-stripped client
    // so the global ledger sees exactly one request, then split the bill.
    auto entry = std::make_shared<Entry>(sim_);
    inflight_[extent] = entry;
    if (attribution != nullptr) entry->sharers.push_back(attribution);
    metrics_->Add(obs::Metric::kSharedScanFetches, 1);
    if (was_waiter) metrics_->Add(obs::Metric::kSharedScanRearms, 1);
    NetContext bare = client->ctx();
    bare.attribution = nullptr;
    S3Client fetcher(client->store(), bare);
    auto r = co_await fetcher.Get(bucket, key, offset, length);
    inflight_.erase(extent);
    if (!r.ok()) {
      // Only the fetcher carries the error; waiters re-arm.
      entry->done.Set();
      co_return r;
    }
    {
      entry->completed = true;
      // The extent's modeled size: the store already charged the global
      // ledger `real bytes x object scale`; mirror the same quantity into
      // each sharer's slice.
      double scale = 1.0;
      auto scale_r = client->store()->Scale(bucket, key);
      if (scale_r.ok()) scale = *scale_r;
      double virtual_bytes = static_cast<double>((*r)->size()) * scale;
      double n = static_cast<double>(entry->sharers.size());
      for (CostLedger* sharer : entry->sharers) {
        sharer->AddSharedS3Get(virtual_bytes / n, 1.0 / n);
      }
      entry->result = std::move(r);
    }
    entry->done.Set();
    co_return entry->result;
  }
}

}  // namespace lambada::cloud
