#ifndef LAMBADA_FORMAT_SOURCE_H_
#define LAMBADA_FORMAT_SOURCE_H_

#include <memory>
#include <string>

#include "cloud/meta_cache.h"
#include "cloud/object_store.h"
#include "cloud/scan_share.h"
#include "common/buffer.h"
#include "common/status.h"
#include "sim/async.h"

namespace lambada::format {

/// Random-access byte source, the user-level filesystem interface of
/// Section 4.3.2 (Figure 8): ReadAt supports multiple concurrent reads,
/// unlike a stream's Seek/Read.
class RandomAccessSource {
 public:
  struct Tail {
    BufferPtr data;
    int64_t file_size = 0;
  };

  virtual ~RandomAccessSource() = default;

  /// Reads exactly [offset, offset + length); IOError if out of bounds.
  virtual sim::Async<Result<BufferPtr>> ReadAt(int64_t offset,
                                               int64_t length) = 0;

  /// Reads the last min(length, size) bytes and reports the file size.
  virtual sim::Async<Result<Tail>> ReadTail(int64_t length) = 0;
};

/// Source over an in-memory buffer (host-side tests and tools).
class InMemorySource final : public RandomAccessSource {
 public:
  explicit InMemorySource(BufferPtr data) : data_(std::move(data)) {}

  sim::Async<Result<BufferPtr>> ReadAt(int64_t offset,
                                       int64_t length) override;
  sim::Async<Result<Tail>> ReadTail(int64_t length) override;

 private:
  BufferPtr data_;
};

/// Source over a simulated S3 object, implementing concurrency level (1) of
/// the scan operator: a large read may be split into `chunk_bytes` ranges
/// downloaded over up to `connections` concurrent requests (Figure 7).
class S3Source final : public RandomAccessSource {
 public:
  struct Options {
    /// Request ("chunk") size for splitting large reads; <= 0 disables
    /// splitting (one request per read).
    int64_t chunk_bytes = 8 * 1024 * 1024;
    /// Concurrent in-flight range requests within one ReadAt.
    int connections = 1;
    /// Optional shared-scan broker (serving mode): ranged GETs over the
    /// same extent of the same object join one physical request.
    cloud::SharedScanBroker* share = nullptr;
    /// Optional metadata cache (serving mode): ReadTail consults it before
    /// touching S3 and fills it on a miss.
    cloud::MetadataCache* meta = nullptr;
  };

  S3Source(cloud::S3Client client, std::string bucket, std::string key,
           Options options)
      : client_(std::move(client)),
        bucket_(std::move(bucket)),
        key_(std::move(key)),
        options_(options) {}

  S3Source(cloud::S3Client client, std::string bucket, std::string key)
      : S3Source(std::move(client), std::move(bucket), std::move(key),
                 Options()) {}

  sim::Async<Result<BufferPtr>> ReadAt(int64_t offset,
                                       int64_t length) override;
  sim::Async<Result<Tail>> ReadTail(int64_t length) override;

  /// Number of GET requests issued so far by this source.
  int64_t request_count() const { return request_count_; }
  /// Bytes its tail GETs returned, which the store bills at their real
  /// size. A tail the metadata cache served was no GET and adds nothing.
  int64_t tail_bytes() const { return tail_bytes_; }

 private:
  cloud::S3Client client_;
  std::string bucket_;
  std::string key_;
  Options options_;
  int64_t request_count_ = 0;
  int64_t tail_bytes_ = 0;
};

}  // namespace lambada::format

#endif  // LAMBADA_FORMAT_SOURCE_H_
