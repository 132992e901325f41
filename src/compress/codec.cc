#include "compress/codec.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace lambada::compress {

std::string_view CodecName(CodecId id) {
  switch (id) {
    case CodecId::kNone:
      return "none";
    case CodecId::kRle:
      return "rle";
    case CodecId::kLz:
      return "lz";
    case CodecId::kHeavy:
      return "heavy";
  }
  return "unknown";
}

Result<CodecId> CodecFromName(std::string_view name) {
  if (name == "none") return CodecId::kNone;
  if (name == "rle") return CodecId::kRle;
  if (name == "lz") return CodecId::kLz;
  if (name == "heavy") return CodecId::kHeavy;
  return Status::Invalid("unknown codec: " + std::string(name));
}

namespace {

// ---------------------------------------------------------------------------
// None
// ---------------------------------------------------------------------------

class NoneCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kNone; }

  std::vector<uint8_t> Compress(const uint8_t* input,
                                size_t size) const override {
    return std::vector<uint8_t>(input, input + size);
  }

  Result<std::vector<uint8_t>> Decompress(
      const uint8_t* input, size_t input_size,
      size_t uncompressed_size) const override {
    if (input_size != uncompressed_size) {
      return Status::IOError("uncompressed chunk has wrong size");
    }
    return std::vector<uint8_t>(input, input + input_size);
  }

  double DecompressCpuSecondsPerByte() const override { return 1.0 / 4e9; }
};

// ---------------------------------------------------------------------------
// RLE (PackBits-style): light-weight compression
// ---------------------------------------------------------------------------
//
// Control byte c:
//   c in [0, 127]   : copy the next c+1 literal bytes.
//   c in [129, 255] : repeat the next byte 257-c times (run of 2..128).
//   c == 128        : reserved (never emitted).

class RleCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kRle; }

  std::vector<uint8_t> Compress(const uint8_t* input,
                                size_t size) const override {
    std::vector<uint8_t> out;
    out.reserve(size / 2 + 16);
    size_t i = 0;
    const size_t n = size;
    while (i < n) {
      // Measure the run at i.
      size_t run = 1;
      while (i + run < n && input[i + run] == input[i] && run < 128) ++run;
      if (run >= 2) {
        out.push_back(static_cast<uint8_t>(257 - run));
        out.push_back(input[i]);
        i += run;
        continue;
      }
      // Collect literals until the next run of >= 3 (a run of 2 is not
      // worth breaking a literal block for).
      size_t lit_start = i;
      while (i < n && (i - lit_start) < 128) {
        size_t r = 1;
        while (i + r < n && input[i + r] == input[i] && r < 3) ++r;
        if (r >= 3) break;
        ++i;
      }
      size_t lit_len = i - lit_start;
      out.push_back(static_cast<uint8_t>(lit_len - 1));
      out.insert(out.end(), input + lit_start, input + lit_start + lit_len);
    }
    return out;
  }

  Result<std::vector<uint8_t>> Decompress(
      const uint8_t* input, size_t input_size,
      size_t uncompressed_size) const override {
    std::vector<uint8_t> out;
    out.reserve(uncompressed_size);
    size_t i = 0;
    while (i < input_size) {
      uint8_t c = input[i++];
      if (c <= 127) {
        size_t len = static_cast<size_t>(c) + 1;
        if (i + len > input_size) return Status::IOError("rle: truncated");
        out.insert(out.end(), input + i, input + i + len);
        i += len;
      } else if (c >= 129) {
        if (i >= input_size) return Status::IOError("rle: truncated run");
        size_t len = 257 - static_cast<size_t>(c);
        out.insert(out.end(), len, input[i++]);
      } else {
        return Status::IOError("rle: reserved control byte");
      }
      if (out.size() > uncompressed_size) {
        return Status::IOError("rle: output overflow");
      }
    }
    if (out.size() != uncompressed_size) {
      return Status::IOError("rle: output size mismatch");
    }
    return out;
  }

  double DecompressCpuSecondsPerByte() const override { return 1.0 / 1.5e9; }
};

// ---------------------------------------------------------------------------
// LZ77 (LZ4-like block format)
// ---------------------------------------------------------------------------
//
// A sequence is: token byte (hi nibble literal length, lo nibble match
// length - 4; 15 means "extended with 255-saturated continuation bytes"),
// literal bytes, then (unless this is the terminal sequence) a 2-byte
// little-endian match offset >= 1 and the match-length extension bytes.

struct LzParams {
  int window_bits;   // Match window size = 1 << window_bits.
  int chain_depth;   // Hash-chain positions probed per match attempt.
  size_t min_match = 4;
};

void PutExtendedLength(std::vector<uint8_t>* out, size_t len) {
  while (len >= 255) {
    out->push_back(255);
    len -= 255;
  }
  out->push_back(static_cast<uint8_t>(len));
}

uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;  // 16-bit hash bucket space.
}

/// Hash-chain match tables, allocated once and reused by every compress
/// call on the same thread. A call stamps each entry with `base` plus the
/// position, and advances `base` past its input, so an entry below the
/// current base was left by an earlier call and reads as empty: nothing is
/// ever cleared. `prev` is a ring indexed by position mod 64 Ki: the chain
/// walk stops at offsets above 65535 before it reads `prev`, so it only
/// reads slots the current call wrote at that very position.
struct LzMatchTables {
  static constexpr size_t kHashSize = size_t{1} << 16;
  static constexpr size_t kRingSize = size_t{1} << 16;
  std::vector<uint64_t> head = std::vector<uint64_t>(kHashSize, 0);
  std::vector<uint64_t> prev = std::vector<uint64_t>(kRingSize, 0);
  uint64_t base = 1;
};

std::vector<uint8_t> LzCompress(const uint8_t* input, size_t n,
                                const LzParams& params) {
  std::vector<uint8_t> out;
  out.reserve(n / 2 + 64);
  if (n < 13) {
    // Too small for matches: emit one literal-only sequence.
    size_t lit = n;
    uint8_t token = static_cast<uint8_t>(std::min<size_t>(lit, 15) << 4);
    out.push_back(token);
    if (lit >= 15) PutExtendedLength(&out, lit - 15);
    out.insert(out.end(), input, input + n);
    return out;
  }

  // thread_local, so calls on different threads never share tables.
  thread_local LzMatchTables tables;
  uint64_t* head = tables.head.data();
  uint64_t* prev = tables.prev.data();
  constexpr size_t kRingMask = LzMatchTables::kRingSize - 1;
  const uint64_t base = tables.base;
  tables.base += n;
  const size_t window = size_t{1} << params.window_bits;

  size_t i = 0;
  size_t literal_start = 0;
  // Leave room so that 4-byte loads and the terminal literals are safe.
  const size_t match_limit = n - 5;

  auto emit_sequence = [&](size_t lit_start, size_t lit_len, size_t offset,
                           size_t match_len) {
    size_t ml = match_len - 4;
    uint8_t token =
        static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4 |
                             std::min<size_t>(ml, 15));
    out.push_back(token);
    if (lit_len >= 15) PutExtendedLength(&out, lit_len - 15);
    out.insert(out.end(), input + lit_start, input + lit_start + lit_len);
    out.push_back(static_cast<uint8_t>(offset & 0xFF));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (ml >= 15) PutExtendedLength(&out, ml - 15);
  };

  while (i <= match_limit) {
    // Probe the hash chain for the best match.
    uint32_t h = Hash4(input + i);
    uint64_t cand = head[h];
    size_t best_len = 0;
    size_t best_off = 0;
    int depth = params.chain_depth;
    while (cand >= base && depth-- > 0) {
      const size_t pos = static_cast<size_t>(cand - base);
      size_t off = i - pos;
      if (off > window || off > 65535) break;
      const uint8_t* a = input + i;
      const uint8_t* b = input + pos;
      size_t max_len = n - i - 5;  // Keep the terminal literals intact.
      size_t len = 0;
      while (len < max_len && a[len] == b[len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_off = off;
      }
      cand = prev[pos & kRingMask];
    }
    if (best_len >= params.min_match) {
      emit_sequence(literal_start, i - literal_start, best_off, best_len);
      // Insert the match positions into the chains (sparsely for speed).
      size_t end = i + best_len;
      size_t step = best_len > 64 ? 8 : 1;
      for (size_t j = i; j < end && j <= match_limit; j += step) {
        uint32_t hj = Hash4(input + j);
        prev[j & kRingMask] = head[hj];
        head[hj] = base + j;
      }
      i = end;
      literal_start = i;
    } else {
      prev[i & kRingMask] = head[h];
      head[h] = base + i;
      ++i;
    }
  }
  // Terminal literal-only sequence.
  size_t lit = n - literal_start;
  uint8_t token = static_cast<uint8_t>(std::min<size_t>(lit, 15) << 4);
  out.push_back(token);
  if (lit >= 15) PutExtendedLength(&out, lit - 15);
  out.insert(out.end(), input + literal_start, input + n);
  return out;
}

Result<std::vector<uint8_t>> LzDecompress(const uint8_t* input,
                                          size_t input_size,
                                          size_t uncompressed_size) {
  std::vector<uint8_t> out;
  out.reserve(uncompressed_size);
  size_t i = 0;
  auto read_extended = [&](size_t base) -> Result<size_t> {
    size_t len = base;
    if (base == 15) {
      while (true) {
        if (i >= input_size) return Status::IOError("lz: truncated length");
        uint8_t b = input[i++];
        len += b;
        if (b != 255) break;
      }
    }
    return len;
  };
  while (i < input_size) {
    uint8_t token = input[i++];
    ASSIGN_OR_RETURN(size_t lit_len, read_extended(token >> 4));
    if (i + lit_len > input_size) return Status::IOError("lz: truncated");
    out.insert(out.end(), input + i, input + i + lit_len);
    i += lit_len;
    if (i >= input_size) break;  // Terminal sequence.
    if (i + 2 > input_size) return Status::IOError("lz: truncated offset");
    size_t offset = input[i] | (static_cast<size_t>(input[i + 1]) << 8);
    i += 2;
    if (offset == 0 || offset > out.size()) {
      return Status::IOError("lz: invalid match offset");
    }
    ASSIGN_OR_RETURN(size_t ml, read_extended(token & 0x0F));
    size_t match_len = ml + 4;
    // Byte-by-byte copy: matches may overlap themselves.
    size_t src = out.size() - offset;
    for (size_t k = 0; k < match_len; ++k) {
      out.push_back(out[src + k]);
    }
    if (out.size() > uncompressed_size) {
      return Status::IOError("lz: output overflow");
    }
  }
  if (out.size() != uncompressed_size) {
    return Status::IOError("lz: output size mismatch");
  }
  return out;
}

class LzCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kLz; }

  std::vector<uint8_t> Compress(const uint8_t* input,
                                size_t size) const override {
    return LzCompress(input, size, LzParams{/*window_bits=*/14,
                                            /*chain_depth=*/4});
  }

  Result<std::vector<uint8_t>> Decompress(
      const uint8_t* input, size_t input_size,
      size_t uncompressed_size) const override {
    return LzDecompress(input, input_size, uncompressed_size);
  }

  double DecompressCpuSecondsPerByte() const override { return 1.0 / 600e6; }
};

class HeavyCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kHeavy; }

  std::vector<uint8_t> Compress(const uint8_t* input,
                                size_t size) const override {
    // Depth 12 keeps compression tractable on small hosts while staying
    // clearly ahead of the light codec's ratio; the *decompression* CPU
    // model below is what the experiments depend on.
    return LzCompress(input, size, LzParams{/*window_bits=*/16,
                                            /*chain_depth=*/12});
  }

  Result<std::vector<uint8_t>> Decompress(
      const uint8_t* input, size_t input_size,
      size_t uncompressed_size) const override {
    return LzDecompress(input, input_size, uncompressed_size);
  }

  /// GZIP-class decompression throughput of numeric column data:
  /// ~400 MB/s of output per vCPU. Calibrated so that a Q1-style scan of a
  /// 500 MB file is (mildly) CPU-bound and takes ~2.5 s of processing on a
  /// 1-vCPU worker, matching Figure 11.
  double DecompressCpuSecondsPerByte() const override { return 1.0 / 400e6; }
};

}  // namespace

const Codec& GetCodec(CodecId id) {
  static const NoneCodec none;
  static const RleCodec rle;
  static const LzCodec lz;
  static const HeavyCodec heavy;
  switch (id) {
    case CodecId::kNone:
      return none;
    case CodecId::kRle:
      return rle;
    case CodecId::kLz:
      return lz;
    case CodecId::kHeavy:
      return heavy;
  }
  LAMBADA_FATAL() << "unknown codec id";
  return none;
}

}  // namespace lambada::compress
