#ifndef LAMBADA_CLOUD_OBJECT_STORE_H_
#define LAMBADA_CLOUD_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cost_ledger.h"
#include "cloud/net.h"
#include "common/buffer.h"
#include "common/status.h"
#include "sim/async.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace lambada::cloud {

class FaultInjector;

/// Behavioural knobs of the simulated S3, with defaults matching the
/// paper's measurements and the service limits it cites (Section 4.4.1).
struct ObjectStoreConfig {
  /// Per-bucket request-rate limits (requests/s). AWS raised these to
  /// 3500 writes/s and 5500 reads/s in July 2018; the historic limits were
  /// 300 and 800 (both quoted in the paper).
  double read_rate_per_bucket = 5500.0;
  double write_rate_per_bucket = 3500.0;
  /// Rate-limiter burst allowance (requests).
  double rate_burst = 200.0;
  /// Queueing delay beyond which the service replies "503 SlowDown"
  /// instead of absorbing the request.
  double slowdown_queue_threshold_s = 1.0;
  /// First-byte latency: lognormal median/sigma per request type.
  double get_latency_median_s = 0.025;
  double get_latency_sigma = 0.35;
  double put_latency_median_s = 0.030;
  double put_latency_sigma = 0.40;
  double list_latency_median_s = 0.060;
  double list_latency_sigma = 0.30;
  /// Heavy straggler tail on PUTs (Figure 13): with `put_tail_prob` a PUT
  /// draws an extra Pareto(put_tail_scale_s, put_tail_alpha) delay.
  double put_tail_prob = 0.005;
  double put_tail_scale_s = 1.0;
  double put_tail_alpha = 1.3;
  /// Maximum key length (S3: 1 KiB), relevant for the exchange, which
  /// encodes part offsets in its file names (Section 4.4.3).
  size_t max_key_bytes = 1024;
};

/// Listing entry returned by List().
struct ObjectInfo {
  std::string key;
  int64_t size = 0;  ///< Virtual (scaled) size in bytes.
};

/// Simulated Amazon S3: buckets of immutable objects with range GETs,
/// per-bucket request-rate limits, request pricing, and per-worker
/// bandwidth shaping (through the caller's NetContext).
///
/// Each object may carry a `scale` factor: the stored bytes are the real
/// payload, while transfer time, request accounting, and reported sizes
/// behave as if the object were `scale` times larger. This implements the
/// virtual scaling described in DESIGN.md.
class ObjectStore {
 public:
  ObjectStore(sim::Simulator* sim, CostLedger* ledger,
              const ObjectStoreConfig& config = {});

  // -- Control plane (free, done at installation time) ---------------------

  /// Creates a bucket. Idempotent.
  Status CreateBucket(const std::string& bucket);

  // -- Data plane (simulated requests) --------------------------------------

  /// Downloads `[offset, offset+length)` of an object ("Ranges" GET).
  /// `length < 0` means "to the end"; ranges are clamped to the object size
  /// like HTTP range requests. Offsets address *real* bytes (callers see
  /// real file layouts); transfer time uses scaled bytes.
  sim::Async<Result<BufferPtr>> Get(NetContext ctx, std::string bucket,
                                    std::string key, int64_t offset = 0,
                                    int64_t length = -1);

  /// Suffix-range GET ("Range: bytes=-N"): returns the last
  /// min(suffix_length, size) bytes together with the object's total real
  /// size. This is how format readers bootstrap footer parsing with a
  /// single request.
  struct TailResult {
    BufferPtr data;
    int64_t object_size = 0;  ///< Real bytes.
  };
  sim::Async<Result<TailResult>> GetTail(NetContext ctx, std::string bucket,
                                         std::string key,
                                         int64_t suffix_length);

  /// Uploads an object. `scale` multiplies the object's virtual size.
  sim::Async<Status> Put(NetContext ctx, std::string bucket, std::string key,
                         BufferPtr data, double scale = 1.0);

  /// Lists keys with the given prefix (sorted). One LIST request.
  sim::Async<Result<std::vector<ObjectInfo>>> List(NetContext ctx,
                                                   std::string bucket,
                                                   std::string prefix);

  // -- Host-side access (setup and verification; no simulated cost) --------

  Status PutDirect(const std::string& bucket, const std::string& key,
                   BufferPtr data, double scale = 1.0);
  Result<BufferPtr> GetDirect(const std::string& bucket,
                              const std::string& key) const;
  Result<int64_t> VirtualSize(const std::string& bucket,
                              const std::string& key) const;
  Result<double> Scale(const std::string& bucket,
                       const std::string& key) const;
  std::vector<ObjectInfo> ListDirect(const std::string& bucket,
                                     const std::string& prefix) const;
  /// Removes all objects in a bucket (between experiment repetitions).
  void ClearBucket(const std::string& bucket);

  const ObjectStoreConfig& config() const { return config_; }
  sim::Simulator* simulator() const { return sim_; }

  /// Installs the region's fault injector (null = no injection). Request
  /// hooks consult it after rate-limit admission, so injected errors are
  /// indistinguishable from organic ones to every caller.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  /// Observer fired whenever a bucket's contents change: after a PUT becomes
  /// visible, on PutDirect, and on ClearBucket (with an empty key). The
  /// metadata cache uses this to version-bump its entries so a rewritten
  /// table can never be served from a stale cache line.
  using WriteObserver =
      std::function<void(const std::string& bucket, const std::string& key)>;
  void set_write_observer(WriteObserver observer) {
    write_observer_ = std::move(observer);
  }

 private:
  void NotifyWrite(const std::string& bucket, const std::string& key) {
    if (write_observer_) write_observer_(bucket, key);
  }

  struct Object {
    BufferPtr data;
    double scale = 1.0;
    int64_t VirtualSize() const {
      return static_cast<int64_t>(static_cast<double>(data->size()) * scale);
    }
  };

  struct Bucket {
    std::map<std::string, Object> objects;
    sim::TokenBucket read_limiter;
    sim::TokenBucket write_limiter;
    Bucket(const ObjectStoreConfig& c)
        : read_limiter(c.read_rate_per_bucket, c.rate_burst),
          write_limiter(c.write_rate_per_bucket, c.rate_burst) {}
  };

  /// Applies the request-rate limiter; returns SlowDown when the queue is
  /// too deep, otherwise the admission delay.
  Result<double> AdmitRequest(sim::TokenBucket* limiter);

  Bucket* FindBucket(const std::string& bucket);
  const Bucket* FindBucket(const std::string& bucket) const;

  sim::Simulator* sim_;
  CostLedger* ledger_;
  ObjectStoreConfig config_;
  std::map<std::string, std::unique_ptr<Bucket>> buckets_;
  Rng latency_rng_;
  FaultInjector* fault_ = nullptr;
  WriteObserver write_observer_;
};

/// Retrying wrapper implementing the "aggressive timeouts and retries"
/// the paper applies against SlowDown responses and tail latencies
/// (footnote 17). Every verb retries retriable failures up to 6 times
/// with a jittered exponential backoff starting at 50 ms.
class S3Client {
 public:
  S3Client(ObjectStore* store, NetContext ctx) : store_(store), ctx_(ctx) {}

  sim::Async<Result<BufferPtr>> Get(std::string bucket, std::string key,
                                    int64_t offset = 0, int64_t length = -1);
  sim::Async<Result<ObjectStore::TailResult>> GetTail(std::string bucket,
                                                      std::string key,
                                                      int64_t suffix_length);
  sim::Async<Status> Put(std::string bucket, std::string key, BufferPtr data,
                         double scale = 1.0);
  sim::Async<Result<std::vector<ObjectInfo>>> List(std::string bucket,
                                                   std::string prefix);

  const NetContext& ctx() const { return ctx_; }
  ObjectStore* store() { return store_; }

 private:
  /// One GET through the hedging policy: plain request until enough
  /// latency samples exist, then a duplicate is armed at the observed
  /// latency quantile and the first response wins.
  sim::Async<Result<BufferPtr>> DoGet(std::string bucket, std::string key,
                                      int64_t offset, int64_t length);
  sim::Async<Result<BufferPtr>> HedgedGet(std::string bucket,
                                          std::string key, int64_t offset,
                                          int64_t length);
  double HedgeDelay() const;

  ObjectStore* store_;
  NetContext ctx_;
  /// Latencies of completed GETs, kept only while hedging is enabled;
  /// feeds the hedge-delay quantile.
  std::vector<double> get_samples_;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_OBJECT_STORE_H_
