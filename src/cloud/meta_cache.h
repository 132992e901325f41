#ifndef LAMBADA_CLOUD_META_CACHE_H_
#define LAMBADA_CLOUD_META_CACHE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/kv_store.h"
#include "cloud/net.h"
#include "cloud/object_store.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/async.h"

namespace lambada::cloud {

/// Warm metadata cache in front of the object store's control traffic:
/// LIST results and file footers land in DynamoDB items so repeat queries
/// skip the cold LIST + footer round-trips (a DynamoDB read costs 0.25 µ$
/// and ~5 ms against an S3 GET's 0.4 µ$ and ~25 ms, and a LIST's 5 µ$ and
/// ~60 ms).
///
/// Correctness rests on versioned keys, not invalidation: the cache
/// observes every object-store write (ObjectStore::set_write_observer) and
/// bumps host-side version counters; the version is part of the cache key,
/// so after a table rewrite the old entry is simply never addressed again.
/// Values above DynamoDB's 400 KB item limit split across `key#i` part
/// items referenced from the head item.
///
/// All lookups are real simulated DynamoDB requests through the caller's
/// NetContext — latency and cost are modeled, not free.
class MetadataCache {
 public:
  /// Creates `table` in `kv` and installs the write observer on `s3`.
  /// Lookups count meta_cache.hits / meta_cache.misses into `metrics`,
  /// which must outlive the cache.
  MetadataCache(KeyValueStore* kv, ObjectStore* s3, std::string table,
                obs::MetricsRegistry* metrics);

  /// Uninstalls the write observer (the store outlives the cache).
  ~MetadataCache();

  MetadataCache(const MetadataCache&) = delete;
  MetadataCache& operator=(const MetadataCache&) = delete;

  /// Cached suffix-range fetch. NotFound means "cache miss" — the caller
  /// does the real GetTail and offers the result back via PutFooter.
  sim::Async<Result<ObjectStore::TailResult>> GetFooter(NetContext ctx,
                                                        std::string bucket,
                                                        std::string key,
                                                        int64_t suffix_length);
  sim::Async<Status> PutFooter(NetContext ctx, std::string bucket,
                               std::string key, int64_t suffix_length,
                               ObjectStore::TailResult tail);

  /// Cached LIST. NotFound means "cache miss".
  sim::Async<Result<std::vector<ObjectInfo>>> GetListing(NetContext ctx,
                                                         std::string bucket,
                                                         std::string prefix);
  sim::Async<Status> PutListing(NetContext ctx, std::string bucket,
                                std::string prefix,
                                std::vector<ObjectInfo> listing);

  /// Version-bump hook; public so tests can simulate out-of-band writes.
  void OnWrite(const std::string& bucket, const std::string& key);

  /// Current versioned cache key for a footer / listing (tests pin these).
  std::string FooterKey(const std::string& bucket, const std::string& key,
                        int64_t suffix_length) const;
  std::string ListingKey(const std::string& bucket,
                         const std::string& prefix) const;

 private:
  uint64_t Epoch(const std::string& bucket) const;
  uint64_t ObjectVersion(const std::string& bucket,
                         const std::string& key) const;
  uint64_t ListVersion(const std::string& bucket) const;

  /// Reads a (possibly multi-part) blob; NotFound on any absent piece.
  sim::Async<Result<std::string>> GetBlob(NetContext ctx, std::string key);
  /// Writes a blob, splitting into `key#i` parts above the item limit.
  sim::Async<Status> PutBlob(NetContext ctx, std::string key,
                             std::string blob);

  KeyValueStore* kv_;
  ObjectStore* s3_;
  std::string table_;
  obs::MetricsRegistry* metrics_;

  /// Host-side version state fed by the write observer.
  std::map<std::string, uint64_t> bucket_epoch_;
  std::map<std::string, uint64_t> bucket_list_version_;
  std::map<std::pair<std::string, std::string>, uint64_t> object_version_;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_META_CACHE_H_
