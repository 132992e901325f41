#ifndef LAMBADA_COMMON_BINIO_H_
#define LAMBADA_COMMON_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace lambada {

/// Little-endian binary encoder used for file footers, plan fragments, and
/// chunk serialization. Appends to an internal byte vector.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  /// Unsigned LEB128; compact for small counts.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<uint8_t>(v));
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    PutRaw(s.data(), s.size());
  }

  void PutBytes(const std::vector<uint8_t>& b) {
    PutVarint(b.size());
    PutRaw(b.data(), b.size());
  }

  void PutRaw(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Little-endian binary decoder over a borrowed byte range. All getters
/// bounds-check and report corruption via Status rather than crashing.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  Result<uint8_t> GetU8() {
    RETURN_NOT_OK(Require(1));
    return data_[pos_++];
  }
  Result<uint32_t> GetU32() { return GetRaw<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetRaw<uint64_t>(); }
  Result<int64_t> GetI64() { return GetRaw<int64_t>(); }
  Result<double> GetF64() { return GetRaw<double>(); }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      RETURN_NOT_OK(Require(1));
      uint8_t b = data_[pos_++];
      if (shift >= 64) return Status::IOError("varint overflow");
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  Result<std::string> GetString() {
    ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    RETURN_NOT_OK(Require(n));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Result<std::vector<uint8_t>> GetBytes() {
    ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    RETURN_NOT_OK(Require(n));
    std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

 private:
  Status Require(size_t n) const {
    if (pos_ + n > size_) {
      return Status::IOError("binary reader: truncated input");
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> GetRaw() {
    RETURN_NOT_OK(Require(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace lambada

#endif  // LAMBADA_COMMON_BINIO_H_
