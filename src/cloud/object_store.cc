#include "cloud/object_store.h"

#include <algorithm>
#include <utility>

#include "cloud/fault.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lambada::cloud {

namespace {

/// Stamps an injected request fault onto the caller's current span.
void AnnotateInjectedFault(const NetContext& ctx, const Status& injected,
                           const char* op) {
  if (ctx.tracer == nullptr) return;
  // InjectRequestFault reports throttles as ResourceExhausted ("SlowDown")
  // and server errors as Unavailable.
  ctx.tracer->Instant(ctx.span,
                      injected.code() == StatusCode::kResourceExhausted
                          ? std::string("fault.s3_slowdown")
                          : std::string("fault.s3_") + op + "_error");
}

}  // namespace

ObjectStore::ObjectStore(sim::Simulator* sim, CostLedger* ledger,
                         const ObjectStoreConfig& config)
    : sim_(sim), ledger_(ledger), config_(config), latency_rng_(0x53335333) {}

Status ObjectStore::CreateBucket(const std::string& bucket) {
  if (bucket.empty()) return Status::Invalid("empty bucket name");
  if (buckets_.find(bucket) == buckets_.end()) {
    buckets_.emplace(bucket, std::make_unique<Bucket>(config_));
  }
  return Status::OK();
}

ObjectStore::Bucket* ObjectStore::FindBucket(const std::string& bucket) {
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? nullptr : it->second.get();
}

const ObjectStore::Bucket* ObjectStore::FindBucket(
    const std::string& bucket) const {
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? nullptr : it->second.get();
}

Result<double> ObjectStore::AdmitRequest(sim::TokenBucket* limiter) {
  double now = sim_->Now();
  if (limiter->CurrentDelay(now) > config_.slowdown_queue_threshold_s) {
    return Status::ResourceExhausted("SlowDown: rate limit exceeded");
  }
  return limiter->ReserveDelay(now);
}

sim::Async<Result<BufferPtr>> ObjectStore::Get(NetContext ctx,
                                               std::string bucket,
                                               std::string key,
                                               int64_t offset,
                                               int64_t length) {
  Bucket* b = FindBucket(bucket);
  if (b == nullptr) co_return Status::NotFound("no such bucket: " + bucket);
  auto admitted = AdmitRequest(&b->read_limiter);
  if (!admitted.ok()) {
    // The rejection itself still takes a round trip.
    co_await sim::Sleep(sim_, config_.get_latency_median_s);
    co_return admitted.status();
  }
  if (fault_ != nullptr) {
    // Injected server-side failure: the request was admitted, burned a
    // round trip, and is billed like any failed request.
    Status injected = fault_->InjectRequestFault(FaultOp::kS3Get);
    if (!injected.ok()) {
      AnnotateInjectedFault(ctx, injected, "get");
      co_await sim::Sleep(sim_, *admitted + config_.get_latency_median_s);
      ledger_->AddS3Get(0);
      if (ctx.attribution != nullptr) ctx.attribution->AddS3Get(0);
      co_return injected;
    }
  }
  double latency = ctx.rng->Lognormal(config_.get_latency_median_s,
                                      config_.get_latency_sigma);
  co_await sim::Sleep(sim_, *admitted + latency);
  auto it = b->objects.find(key);
  if (it == b->objects.end()) {
    // A failed lookup is still a billed request.
    ledger_->AddS3Get(0);
    if (ctx.attribution != nullptr) ctx.attribution->AddS3Get(0);
    co_return Status::NotFound("no such key: s3://" + bucket + "/" + key);
  }
  const Object& obj = it->second;
  int64_t size = static_cast<int64_t>(obj.data->size());
  if (offset < 0 || offset > size) {
    ledger_->AddS3Get(0);
    if (ctx.attribution != nullptr) ctx.attribution->AddS3Get(0);
    co_return Status::OutOfRange("range start beyond object size");
  }
  int64_t end = length < 0 ? size : std::min<int64_t>(size, offset + length);
  BufferPtr slice = obj.data->Slice(static_cast<size_t>(offset),
                                    static_cast<size_t>(end - offset));
  // The object's stored scale already includes any caller scaling applied
  // at PUT time; applying ctx.data_scale again would double-count.
  int64_t virtual_bytes = static_cast<int64_t>(
      static_cast<double>(slice->size()) * obj.scale);
  ledger_->AddS3Get(virtual_bytes);
  if (ctx.attribution != nullptr) ctx.attribution->AddS3Get(virtual_bytes);
  if (ctx.nic != nullptr && virtual_bytes > 0) {
    co_await ctx.nic->Transfer(static_cast<double>(virtual_bytes));
  }
  co_return slice;
}

sim::Async<Result<ObjectStore::TailResult>> ObjectStore::GetTail(
    NetContext ctx, std::string bucket, std::string key,
    int64_t suffix_length) {
  Bucket* b = FindBucket(bucket);
  if (b == nullptr) co_return Status::NotFound("no such bucket: " + bucket);
  auto admitted = AdmitRequest(&b->read_limiter);
  if (!admitted.ok()) {
    co_await sim::Sleep(sim_, config_.get_latency_median_s);
    co_return admitted.status();
  }
  if (fault_ != nullptr) {
    Status injected = fault_->InjectRequestFault(FaultOp::kS3Get);
    if (!injected.ok()) {
      AnnotateInjectedFault(ctx, injected, "get");
      co_await sim::Sleep(sim_, *admitted + config_.get_latency_median_s);
      ledger_->AddS3Get(0);
      if (ctx.attribution != nullptr) ctx.attribution->AddS3Get(0);
      co_return injected;
    }
  }
  double latency = ctx.rng->Lognormal(config_.get_latency_median_s,
                                      config_.get_latency_sigma);
  co_await sim::Sleep(sim_, *admitted + latency);
  auto it = b->objects.find(key);
  if (it == b->objects.end()) {
    ledger_->AddS3Get(0);
    if (ctx.attribution != nullptr) ctx.attribution->AddS3Get(0);
    co_return Status::NotFound("no such key: s3://" + bucket + "/" + key);
  }
  const Object& obj = it->second;
  int64_t size = static_cast<int64_t>(obj.data->size());
  int64_t len = std::min<int64_t>(size, std::max<int64_t>(0, suffix_length));
  BufferPtr slice = obj.data->Slice(static_cast<size_t>(size - len),
                                    static_cast<size_t>(len));
  // Footer reads are small control traffic: the suffix bytes are real
  // bytes, not scaled (a bigger file does not have a bigger footer).
  ledger_->AddS3Get(static_cast<int64_t>(slice->size()));
  if (ctx.attribution != nullptr) {
    ctx.attribution->AddS3Get(static_cast<int64_t>(slice->size()));
  }
  if (ctx.nic != nullptr && slice->size() > 0) {
    co_await ctx.nic->Transfer(static_cast<double>(slice->size()));
  }
  co_return TailResult{slice, size};
}

sim::Async<Status> ObjectStore::Put(NetContext ctx, std::string bucket,
                                    std::string key, BufferPtr data,
                                    double scale) {
  Bucket* b = FindBucket(bucket);
  if (b == nullptr) co_return Status::NotFound("no such bucket: " + bucket);
  if (key.size() > config_.max_key_bytes) {
    co_return Status::Invalid("object key exceeds 1 KiB limit");
  }
  auto admitted = AdmitRequest(&b->write_limiter);
  if (!admitted.ok()) {
    co_await sim::Sleep(sim_, config_.put_latency_median_s);
    co_return admitted.status();
  }
  if (fault_ != nullptr) {
    // An injected PUT failure leaves the object untouched: either the old
    // version stays visible or the key stays absent, never a torn write.
    Status injected = fault_->InjectRequestFault(FaultOp::kS3Put);
    if (!injected.ok()) {
      AnnotateInjectedFault(ctx, injected, "put");
      co_await sim::Sleep(sim_, *admitted + config_.put_latency_median_s);
      ledger_->AddS3Put(0);
      if (ctx.attribution != nullptr) ctx.attribution->AddS3Put(0);
      co_return injected;
    }
  }
  int64_t virtual_bytes = static_cast<int64_t>(
      static_cast<double>(data->size()) * scale * ctx.data_scale);
  double latency = ctx.rng->Lognormal(config_.put_latency_median_s,
                                      config_.put_latency_sigma);
  // Heavy straggler tail (Figure 13): rare PUTs take much longer — a
  // fixed component plus one proportional to the upload size (slow
  // server-side throughput). This is the source of the exchange tail
  // latencies the paper analyzes.
  if (ctx.rng->NextDouble() < config_.put_tail_prob) {
    double nominal_transfer =
        static_cast<double>(virtual_bytes) / (90.0 * 1024 * 1024);
    latency += ctx.rng->Pareto(config_.put_tail_scale_s,
                               config_.put_tail_alpha) +
               nominal_transfer * ctx.rng->Pareto(0.25, 1.6);
  }
  co_await sim::Sleep(sim_, *admitted + latency);
  if (ctx.nic != nullptr && virtual_bytes > 0) {
    co_await ctx.nic->Transfer(static_cast<double>(virtual_bytes));
  }
  ledger_->AddS3Put(virtual_bytes);
  if (ctx.attribution != nullptr) ctx.attribution->AddS3Put(virtual_bytes);
  // Visible once the last byte arrived.
  b->objects[key] = Object{std::move(data), scale * ctx.data_scale};
  NotifyWrite(bucket, key);
  co_return Status::OK();
}

sim::Async<Result<std::vector<ObjectInfo>>> ObjectStore::List(
    NetContext ctx, std::string bucket, std::string prefix) {
  Bucket* b = FindBucket(bucket);
  if (b == nullptr) co_return Status::NotFound("no such bucket: " + bucket);
  // LIST shares the write-rate pool and price class (Section 4.4.3).
  auto admitted = AdmitRequest(&b->write_limiter);
  if (!admitted.ok()) {
    co_await sim::Sleep(sim_, config_.list_latency_median_s);
    co_return admitted.status();
  }
  double latency = ctx.rng->Lognormal(config_.list_latency_median_s,
                                      config_.list_latency_sigma);
  co_await sim::Sleep(sim_, *admitted + latency);
  ledger_->AddS3List();
  if (ctx.attribution != nullptr) ctx.attribution->AddS3List();
  std::vector<ObjectInfo> out;
  for (auto it = b->objects.lower_bound(prefix); it != b->objects.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(ObjectInfo{it->first, it->second.VirtualSize()});
  }
  co_return out;
}

Status ObjectStore::PutDirect(const std::string& bucket,
                              const std::string& key, BufferPtr data,
                              double scale) {
  Bucket* b = FindBucket(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  b->objects[key] = Object{std::move(data), scale};
  NotifyWrite(bucket, key);
  return Status::OK();
}

Result<BufferPtr> ObjectStore::GetDirect(const std::string& bucket,
                                         const std::string& key) const {
  const Bucket* b = FindBucket(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  auto it = b->objects.find(key);
  if (it == b->objects.end()) {
    return Status::NotFound("no such key: " + key);
  }
  return it->second.data;
}

Result<int64_t> ObjectStore::VirtualSize(const std::string& bucket,
                                         const std::string& key) const {
  const Bucket* b = FindBucket(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  auto it = b->objects.find(key);
  if (it == b->objects.end()) {
    return Status::NotFound("no such key: " + key);
  }
  return it->second.VirtualSize();
}

Result<double> ObjectStore::Scale(const std::string& bucket,
                                  const std::string& key) const {
  const Bucket* b = FindBucket(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  auto it = b->objects.find(key);
  if (it == b->objects.end()) {
    return Status::NotFound("no such key: " + key);
  }
  return it->second.scale;
}

std::vector<ObjectInfo> ObjectStore::ListDirect(
    const std::string& bucket, const std::string& prefix) const {
  std::vector<ObjectInfo> out;
  const Bucket* b = FindBucket(bucket);
  if (b == nullptr) return out;
  for (auto it = b->objects.lower_bound(prefix); it != b->objects.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(ObjectInfo{it->first, it->second.VirtualSize()});
  }
  return out;
}

void ObjectStore::ClearBucket(const std::string& bucket) {
  Bucket* b = FindBucket(bucket);
  if (b != nullptr) b->objects.clear();
  NotifyWrite(bucket, "");
}

// ---------------------------------------------------------------------------
// S3Client
// ---------------------------------------------------------------------------

namespace {

/// Retry budget of every S3Client verb and the backoff before the first
/// retry; the backoff doubles per retry (topping out at 1.6 s).
constexpr int kMaxRetries = 6;
constexpr double kInitialBackoffS = 0.05;

/// Hedging policy (HedgeConfig): the duplicate GET arms at this quantile
/// of the observed latencies, once this many samples exist, and never
/// sooner than the floor.
constexpr double kHedgeQuantile = 0.9;
constexpr size_t kHedgeMinSamples = 8;
constexpr double kHedgeMinDelayS = 0.02;

/// Annotates a gave-up retriable status with its retry count.
Status AfterRetries(const Status& s, int retries) {
  if (retries == 0) return s;
  return Status(s.code(), s.message() + " (gave up after " +
                              std::to_string(retries) + " retries)");
}

/// The retry loop of every S3Client verb: calls `attempt` until it
/// succeeds, fails non-retriably, or has been retried kMaxRetries times,
/// sleeping a jittered, doubling backoff before each retry. Each retry
/// counts in `ctx.metrics`, marks an "s3.retry" instant on the trace, and
/// draws one uniform from `ctx.rng` — only after a retriable failure.
template <typename Attempt>
auto WithRetries(sim::Simulator* sim, const NetContext& ctx, Attempt attempt)
    -> decltype(attempt()) {
  double backoff = kInitialBackoffS;
  for (int retries = 0;; ++retries) {
    auto r = co_await attempt();
    if (r.ok()) co_return r;
    const Status s = internal::ToStatus(r);
    if (!s.IsRetriable()) co_return r;
    if (retries >= kMaxRetries) co_return AfterRetries(s, retries);
    if (ctx.metrics != nullptr) ctx.metrics->Add(obs::Metric::kS3Retries, 1);
    if (ctx.tracer != nullptr) ctx.tracer->Instant(ctx.span, "s3.retry");
    co_await sim::Sleep(sim, backoff * (0.5 + ctx.rng->NextDouble()));
    backoff *= 2;
  }
}

/// Shared state of one hedged-GET race, held by shared_ptr so the losing
/// request coroutine can outlive the caller's frame.
struct HedgeRace {
  explicit HedgeRace(sim::Simulator* sim) : first_done(sim) {}
  sim::Event first_done;
  Result<BufferPtr> result = Status::Internal("hedge race pending");
  bool settled = false;
  bool hedge_won = false;
};

/// One racer of a hedged GET. Deliberately touches only the store (which
/// outlives the simulation) and the copied NetContext, whose pointers
/// live on the caller's environment — the environment drains
/// `inflight_requests` to zero before dying, so a loser finishing
/// late never dangles. It must NOT touch the S3Client, which may already
/// be destroyed when the loser completes.
sim::Async<void> HedgeAttempt(ObjectStore* store, NetContext ctx,
                              std::shared_ptr<HedgeRace> race,
                              std::string bucket, std::string key,
                              int64_t offset, int64_t length,
                              bool is_hedge) {
  if (ctx.inflight_requests != nullptr) ++*ctx.inflight_requests;
  auto r = co_await store->Get(ctx, bucket, key, offset, length);
  if (ctx.inflight_requests != nullptr) --*ctx.inflight_requests;
  if (!race->settled) {
    race->settled = true;
    race->hedge_won = is_hedge;
    race->result = std::move(r);
    race->first_done.Set();
  }
}

/// Arms the duplicate: sleeps the hedge delay, then issues the second
/// request unless the primary already settled the race.
sim::Async<void> HedgeArm(ObjectStore* store, NetContext ctx,
                          std::shared_ptr<HedgeRace> race, double delay,
                          std::string bucket, std::string key,
                          int64_t offset, int64_t length) {
  co_await sim::Sleep(store->simulator(), delay);
  if (race->settled) co_return;
  if (ctx.metrics != nullptr) {
    ctx.metrics->Add(obs::Metric::kHedgedRequests, 1);
  }
  if (ctx.tracer != nullptr) ctx.tracer->Instant(ctx.span, "s3.hedge_armed");
  co_await HedgeAttempt(store, ctx, std::move(race), std::move(bucket),
                        std::move(key), offset, length, /*is_hedge=*/true);
}

}  // namespace

double S3Client::HedgeDelay() const {
  std::vector<double> s(get_samples_);
  size_t idx =
      static_cast<size_t>(kHedgeQuantile * static_cast<double>(s.size() - 1));
  std::nth_element(s.begin(), s.begin() + static_cast<ptrdiff_t>(idx),
                   s.end());
  return std::max(kHedgeMinDelayS, s[idx]);
}

sim::Async<Result<BufferPtr>> S3Client::HedgedGet(std::string bucket,
                                                  std::string key,
                                                  int64_t offset,
                                                  int64_t length) {
  auto race = std::make_shared<HedgeRace>(store_->simulator());
  sim::Spawn(HedgeAttempt(store_, ctx_, race, bucket, key, offset, length,
                          /*is_hedge=*/false));
  if (!race->settled) {
    sim::Spawn(HedgeArm(store_, ctx_, race, HedgeDelay(), std::move(bucket),
                        std::move(key), offset, length));
    co_await race->first_done.Wait();
  }
  if (race->hedge_won) {
    if (ctx_.metrics != nullptr) ctx_.metrics->Add(obs::Metric::kHedgeWins, 1);
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->Instant(ctx_.span, "s3.hedge_win");
    }
  }
  co_return std::move(race->result);
}

sim::Async<Result<BufferPtr>> S3Client::DoGet(std::string bucket,
                                              std::string key,
                                              int64_t offset,
                                              int64_t length) {
  const bool hedging = ctx_.hedge != nullptr && ctx_.hedge->enabled;
  if (!hedging) {
    co_return co_await store_->Get(ctx_, std::move(bucket), std::move(key),
                                   offset, length);
  }
  const double t0 = store_->simulator()->Now();
  Result<BufferPtr> r = Status::Internal("unreached");
  if (get_samples_.size() < kHedgeMinSamples) {
    r = co_await store_->Get(ctx_, std::move(bucket), std::move(key),
                             offset, length);
  } else {
    r = co_await HedgedGet(std::move(bucket), std::move(key), offset,
                           length);
  }
  if (r.ok()) {
    // Observed (possibly hedged) completion latency feeds the quantile;
    // bound the window so the policy tracks current conditions.
    if (get_samples_.size() >= 256) {
      get_samples_.erase(get_samples_.begin());
    }
    get_samples_.push_back(store_->simulator()->Now() - t0);
  }
  co_return r;
}

// Each verb hands WithRetries an attempt that owns its arguments, moved
// from a named local: GCC 12 mishandles prvalue class-type arguments of
// coroutines (see core/session_manager.h).

sim::Async<Result<BufferPtr>> S3Client::Get(std::string bucket,
                                            std::string key, int64_t offset,
                                            int64_t length) {
  auto attempt = [this, bucket = std::move(bucket), key = std::move(key),
                  offset, length] {
    return DoGet(bucket, key, offset, length);
  };
  return WithRetries(store_->simulator(), ctx_, std::move(attempt));
}

sim::Async<Result<ObjectStore::TailResult>> S3Client::GetTail(
    std::string bucket, std::string key, int64_t suffix_length) {
  auto attempt = [this, bucket = std::move(bucket), key = std::move(key),
                  suffix_length] {
    return store_->GetTail(ctx_, bucket, key, suffix_length);
  };
  return WithRetries(store_->simulator(), ctx_, std::move(attempt));
}

sim::Async<Status> S3Client::Put(std::string bucket, std::string key,
                                 BufferPtr data, double scale) {
  auto attempt = [this, bucket = std::move(bucket), key = std::move(key),
                  data = std::move(data), scale] {
    return store_->Put(ctx_, bucket, key, data, scale);
  };
  return WithRetries(store_->simulator(), ctx_, std::move(attempt));
}

sim::Async<Result<std::vector<ObjectInfo>>> S3Client::List(
    std::string bucket, std::string prefix) {
  auto attempt = [this, bucket = std::move(bucket),
                  prefix = std::move(prefix)] {
    return store_->List(ctx_, bucket, prefix);
  };
  return WithRetries(store_->simulator(), ctx_, std::move(attempt));
}

}  // namespace lambada::cloud
