#include "cloud/meta_cache.h"

#include <algorithm>
#include <utility>

#include "common/binio.h"
#include "common/buffer.h"
#include "common/logging.h"

namespace lambada::cloud {

namespace {

/// Head items leave room for the part-count varint; part items carry raw
/// payload bytes with no framing, so each can use the full item limit.
constexpr size_t kHeadOverheadBytes = 10;

std::string TakeString(BinaryWriter* w) {
  std::vector<uint8_t> bytes = w->Take();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

MetadataCache::MetadataCache(KeyValueStore* kv, ObjectStore* s3,
                             std::string table, obs::MetricsRegistry* metrics)
    : kv_(kv), s3_(s3), table_(std::move(table)), metrics_(metrics) {
  Status st = kv_->CreateTable(table_);
  LAMBADA_CHECK(st.ok()) << "metadata cache table: " << st.ToString();
  s3_->set_write_observer([this](const std::string& bucket,
                                 const std::string& key) {
    OnWrite(bucket, key);
  });
}

MetadataCache::~MetadataCache() { s3_->set_write_observer(nullptr); }

void MetadataCache::OnWrite(const std::string& bucket,
                            const std::string& key) {
  if (key.empty()) {
    // Bucket-wide change (ClearBucket): a new epoch retires every cached
    // entry of the bucket at once.
    ++bucket_epoch_[bucket];
    return;
  }
  ++object_version_[{bucket, key}];
  ++bucket_list_version_[bucket];
}

uint64_t MetadataCache::Epoch(const std::string& bucket) const {
  auto it = bucket_epoch_.find(bucket);
  return it == bucket_epoch_.end() ? 0 : it->second;
}

uint64_t MetadataCache::ObjectVersion(const std::string& bucket,
                                      const std::string& key) const {
  auto it = object_version_.find({bucket, key});
  return it == object_version_.end() ? 0 : it->second;
}

uint64_t MetadataCache::ListVersion(const std::string& bucket) const {
  auto it = bucket_list_version_.find(bucket);
  return it == bucket_list_version_.end() ? 0 : it->second;
}

std::string MetadataCache::FooterKey(const std::string& bucket,
                                     const std::string& key,
                                     int64_t suffix_length) const {
  return "f/" + std::to_string(Epoch(bucket)) + "." +
         std::to_string(ObjectVersion(bucket, key)) + "/" + bucket + "/" +
         key + "@" + std::to_string(suffix_length);
}

std::string MetadataCache::ListingKey(const std::string& bucket,
                                      const std::string& prefix) const {
  return "l/" + std::to_string(Epoch(bucket)) + "." +
         std::to_string(ListVersion(bucket)) + "/" + bucket + "/" + prefix;
}

sim::Async<Result<std::string>> MetadataCache::GetBlob(NetContext ctx,
                                                       std::string key) {
  auto head = co_await kv_->Get(ctx, table_, key);
  if (!head.ok()) co_return head.status();
  BinaryReader r(reinterpret_cast<const uint8_t*>(head->data()),
                 head->size());
  auto nparts_r = r.GetVarint();
  if (!nparts_r.ok()) co_return nparts_r.status();
  uint64_t nparts = *nparts_r;
  if (nparts == 0) {
    co_return head->substr(head->size() - r.remaining());
  }
  std::string blob;
  for (uint64_t i = 0; i < nparts; ++i) {
    auto part =
        co_await kv_->Get(ctx, table_, key + "#" + std::to_string(i));
    // A torn fill (part never written) reads as a miss.
    if (!part.ok()) co_return part.status();
    blob += *part;
  }
  co_return blob;
}

sim::Async<Status> MetadataCache::PutBlob(NetContext ctx, std::string key,
                                          std::string blob) {
  const size_t limit = 400 * 1000;  // DynamoDB item limit (kv enforces it).
  BinaryWriter head;
  if (blob.size() + kHeadOverheadBytes <= limit) {
    head.PutVarint(0);
    head.PutRaw(blob.data(), blob.size());
    co_return co_await kv_->Put(ctx, table_, std::move(key),
                                TakeString(&head));
  }
  // Oversize blob: raw-byte parts at `key#i`, head holds the part count.
  size_t nparts = (blob.size() + limit - 1) / limit;
  for (size_t i = 0; i < nparts; ++i) {
    size_t off = i * limit;
    CO_RETURN_NOT_OK(co_await kv_->Put(
        ctx, table_, key + "#" + std::to_string(i),
        blob.substr(off, std::min(limit, blob.size() - off))));
  }
  head.PutVarint(nparts);
  co_return co_await kv_->Put(ctx, table_, std::move(key),
                              TakeString(&head));
}

sim::Async<Result<ObjectStore::TailResult>> MetadataCache::GetFooter(
    NetContext ctx, std::string bucket, std::string key,
    int64_t suffix_length) {
  auto blob = co_await GetBlob(ctx, FooterKey(bucket, key, suffix_length));
  if (!blob.ok()) {
    metrics_->Add(obs::Metric::kMetaCacheMisses, 1);
    co_return blob.status();
  }
  BinaryReader r(reinterpret_cast<const uint8_t*>(blob->data()),
                 blob->size());
  ObjectStore::TailResult tail;
  auto size_r = r.GetI64();
  if (!size_r.ok()) co_return size_r.status();
  tail.object_size = *size_r;
  auto data_r = r.GetBytes();
  if (!data_r.ok()) co_return data_r.status();
  tail.data = Buffer::FromVector(std::move(*data_r));
  metrics_->Add(obs::Metric::kMetaCacheHits, 1);
  co_return tail;
}

sim::Async<Status> MetadataCache::PutFooter(NetContext ctx,
                                            std::string bucket,
                                            std::string key,
                                            int64_t suffix_length,
                                            ObjectStore::TailResult tail) {
  BinaryWriter w;
  w.PutI64(tail.object_size);
  w.PutVarint(tail.data->size());
  w.PutRaw(tail.data->data(), tail.data->size());
  co_return co_await PutBlob(ctx, FooterKey(bucket, key, suffix_length),
                             TakeString(&w));
}

sim::Async<Result<std::vector<ObjectInfo>>> MetadataCache::GetListing(
    NetContext ctx, std::string bucket, std::string prefix) {
  auto blob = co_await GetBlob(ctx, ListingKey(bucket, prefix));
  if (!blob.ok()) {
    metrics_->Add(obs::Metric::kMetaCacheMisses, 1);
    co_return blob.status();
  }
  BinaryReader r(reinterpret_cast<const uint8_t*>(blob->data()),
                 blob->size());
  auto n_r = r.GetVarint();
  if (!n_r.ok()) co_return n_r.status();
  uint64_t n = *n_r;
  std::vector<ObjectInfo> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ObjectInfo info;
    auto key_r = r.GetString();
    if (!key_r.ok()) co_return key_r.status();
    info.key = std::move(*key_r);
    auto isize_r = r.GetI64();
    if (!isize_r.ok()) co_return isize_r.status();
    info.size = *isize_r;
    out.push_back(std::move(info));
  }
  metrics_->Add(obs::Metric::kMetaCacheHits, 1);
  co_return out;
}

sim::Async<Status> MetadataCache::PutListing(NetContext ctx,
                                             std::string bucket,
                                             std::string prefix,
                                             std::vector<ObjectInfo> listing) {
  BinaryWriter w;
  w.PutVarint(listing.size());
  for (const auto& info : listing) {
    w.PutString(info.key);
    w.PutI64(info.size);
  }
  co_return co_await PutBlob(ctx, ListingKey(bucket, prefix),
                             TakeString(&w));
}

}  // namespace lambada::cloud
