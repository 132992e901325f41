#ifndef LAMBADA_COMMON_BUFFER_H_
#define LAMBADA_COMMON_BUFFER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

namespace lambada {

/// An immutable, reference-counted byte buffer. Slicing is zero-copy: a
/// slice shares ownership of the parent storage. This is the currency of
/// the storage and format layers (objects in the store, column chunks, ...).
class Buffer {
 public:
  Buffer() = default;

  /// Takes ownership of `data`.
  static std::shared_ptr<Buffer> FromVector(std::vector<uint8_t> data) {
    auto storage = std::make_shared<std::vector<uint8_t>>(std::move(data));
    auto buf = std::make_shared<Buffer>();
    buf->storage_ = storage;
    buf->data_ = storage->data();
    buf->size_ = storage->size();
    return buf;
  }

  static std::shared_ptr<Buffer> FromString(const std::string& s) {
    return FromVector(std::vector<uint8_t>(s.begin(), s.end()));
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Zero-copy sub-range view sharing ownership with this buffer.
  std::shared_ptr<Buffer> Slice(size_t offset, size_t length) const {
    LAMBADA_CHECK_LE(offset, size_);
    LAMBADA_CHECK_LE(offset + length, size_);
    auto buf = std::make_shared<Buffer>();
    buf->storage_ = storage_;
    buf->data_ = data_ + offset;
    buf->size_ = length;
    return buf;
  }

  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

 private:
  std::shared_ptr<std::vector<uint8_t>> storage_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

using BufferPtr = std::shared_ptr<Buffer>;

}  // namespace lambada

#endif  // LAMBADA_COMMON_BUFFER_H_
