#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "compress/codec.h"
#include "engine/table.h"
#include "format/metadata.h"
#include "format/writer.h"

namespace lambada::compress {
namespace {

// ---------------------------------------------------------------------------
// Byte-identity oracle: the LZ compressor as it was before its match tables
// became reused per-thread state. It allocates and clears fresh tables on
// every call, which is slow but obviously free of cross-call state. The
// shipped codecs must emit exactly these bytes.
// ---------------------------------------------------------------------------

struct OracleParams {
  int window_bits;
  int chain_depth;
  size_t min_match = 4;
};

void OraclePutExtendedLength(std::vector<uint8_t>* out, size_t len) {
  while (len >= 255) {
    out->push_back(255);
    len -= 255;
  }
  out->push_back(static_cast<uint8_t>(len));
}

uint32_t OracleHash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;
}

std::vector<uint8_t> OracleLzCompress(const uint8_t* input, size_t n,
                                      const OracleParams& params) {
  std::vector<uint8_t> out;
  out.reserve(n / 2 + 64);
  if (n < 13) {
    size_t lit = n;
    uint8_t token = static_cast<uint8_t>(std::min<size_t>(lit, 15) << 4);
    out.push_back(token);
    if (lit >= 15) OraclePutExtendedLength(&out, lit - 15);
    out.insert(out.end(), input, input + n);
    return out;
  }

  constexpr size_t kHashSize = 1 << 16;
  std::vector<int64_t> head(kHashSize, -1);
  std::vector<int64_t> prev(n, -1);
  const size_t window = size_t{1} << params.window_bits;

  size_t i = 0;
  size_t literal_start = 0;
  const size_t match_limit = n - 5;

  auto emit_sequence = [&](size_t lit_start, size_t lit_len, size_t offset,
                           size_t match_len) {
    size_t ml = match_len - 4;
    uint8_t token =
        static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4 |
                             std::min<size_t>(ml, 15));
    out.push_back(token);
    if (lit_len >= 15) OraclePutExtendedLength(&out, lit_len - 15);
    out.insert(out.end(), input + lit_start, input + lit_start + lit_len);
    out.push_back(static_cast<uint8_t>(offset & 0xFF));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (ml >= 15) OraclePutExtendedLength(&out, ml - 15);
  };

  while (i <= match_limit) {
    uint32_t h = OracleHash4(input + i);
    int64_t cand = head[h];
    size_t best_len = 0;
    size_t best_off = 0;
    int depth = params.chain_depth;
    while (cand >= 0 && depth-- > 0) {
      size_t off = i - static_cast<size_t>(cand);
      if (off > window || off > 65535) break;
      const uint8_t* a = input + i;
      const uint8_t* b = input + cand;
      size_t max_len = n - i - 5;
      size_t len = 0;
      while (len < max_len && a[len] == b[len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_off = off;
      }
      cand = prev[cand];
    }
    if (best_len >= params.min_match) {
      emit_sequence(literal_start, i - literal_start, best_off, best_len);
      size_t end = i + best_len;
      size_t step = best_len > 64 ? 8 : 1;
      for (size_t j = i; j < end && j <= match_limit; j += step) {
        uint32_t hj = OracleHash4(input + j);
        prev[j] = head[hj];
        head[hj] = static_cast<int64_t>(j);
      }
      i = end;
      literal_start = i;
    } else {
      prev[i] = head[h];
      head[h] = static_cast<int64_t>(i);
      ++i;
    }
  }
  size_t lit = n - literal_start;
  uint8_t token = static_cast<uint8_t>(std::min<size_t>(lit, 15) << 4);
  out.push_back(token);
  if (lit >= 15) OraclePutExtendedLength(&out, lit - 15);
  out.insert(out.end(), input + literal_start, input + n);
  return out;
}

/// The oracle with the parameters of the shipped codec `id` (kLz or kHeavy).
std::vector<uint8_t> OracleCompress(CodecId id,
                                    const std::vector<uint8_t>& in) {
  const OracleParams params = id == CodecId::kLz ? OracleParams{14, 4}
                                                 : OracleParams{16, 12};
  return OracleLzCompress(in.data(), in.size(), params);
}

enum class Shape { kRandom, kSmallRangeInt64, kRuns };

std::vector<uint8_t> ShapedInput(Shape shape, size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  switch (shape) {
    case Shape::kRandom:
      for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
      break;
    case Shape::kSmallRangeInt64:
      for (size_t i = 0; i < size; i += 8) {
        int64_t v = rng.UniformInt(0, 50);
        std::memcpy(out.data() + i, &v, std::min<size_t>(8, size - i));
      }
      break;
    case Shape::kRuns:
      for (size_t i = 0; i < size;) {
        size_t run = static_cast<size_t>(rng.UniformInt(1, 300));
        uint8_t b = static_cast<uint8_t>(rng.Next());
        for (size_t k = 0; k < run && i < size; ++k) out[i++] = b;
      }
      break;
  }
  return out;
}

const std::vector<size_t>& IdentitySizes() {
  static const std::vector<size_t> sizes = {
      0, 1, 12, 13, 14, 32, 2000, 65535, 65536, 70000, 300000};
  return sizes;
}

std::vector<uint8_t> RoundTrip(const Codec& codec,
                               const std::vector<uint8_t>& input) {
  auto compressed = codec.Compress(input);
  auto r = codec.Decompress(compressed.data(), compressed.size(),
                            input.size());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<uint8_t>{};
}

class AllCodecsTest : public ::testing::TestWithParam<CodecId> {};

INSTANTIATE_TEST_SUITE_P(Codecs, AllCodecsTest,
                         ::testing::Values(CodecId::kNone, CodecId::kRle,
                                           CodecId::kLz, CodecId::kHeavy),
                         [](const auto& info) {
                           return std::string(CodecName(info.param));
                         });

TEST_P(AllCodecsTest, EmptyInput) {
  const Codec& codec = GetCodec(GetParam());
  EXPECT_EQ(RoundTrip(codec, {}), std::vector<uint8_t>{});
}

TEST_P(AllCodecsTest, SingleByte) {
  const Codec& codec = GetCodec(GetParam());
  std::vector<uint8_t> in = {42};
  EXPECT_EQ(RoundTrip(codec, in), in);
}

TEST_P(AllCodecsTest, ShortAscii) {
  const Codec& codec = GetCodec(GetParam());
  std::string s = "hello, lambada!";
  std::vector<uint8_t> in(s.begin(), s.end());
  EXPECT_EQ(RoundTrip(codec, in), in);
}

TEST_P(AllCodecsTest, AllSameByte) {
  const Codec& codec = GetCodec(GetParam());
  std::vector<uint8_t> in(10000, 0xAB);
  EXPECT_EQ(RoundTrip(codec, in), in);
}

TEST_P(AllCodecsTest, RandomBytesRoundTrip) {
  const Codec& codec = GetCodec(GetParam());
  Rng rng(99);
  for (size_t size : {1u, 7u, 100u, 4096u, 70000u}) {
    std::vector<uint8_t> in(size);
    for (auto& b : in) b = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(RoundTrip(codec, in), in) << "size " << size;
  }
}

TEST_P(AllCodecsTest, RepetitiveDataRoundTrip) {
  const Codec& codec = GetCodec(GetParam());
  // Int64 columns with small value ranges: the typical Lambada payload.
  std::vector<int64_t> values;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) values.push_back(rng.UniformInt(0, 50));
  std::vector<uint8_t> in(values.size() * sizeof(int64_t));
  std::memcpy(in.data(), values.data(), in.size());
  EXPECT_EQ(RoundTrip(codec, in), in);
}

TEST_P(AllCodecsTest, DecompressRejectsWrongSize) {
  const Codec& codec = GetCodec(GetParam());
  std::vector<uint8_t> in(1000, 1);
  auto compressed = codec.Compress(in);
  auto r = codec.Decompress(compressed.data(), compressed.size(),
                            in.size() + 1);
  EXPECT_FALSE(r.ok());
}

TEST_P(AllCodecsTest, DecompressRejectsTruncatedInput) {
  const Codec& codec = GetCodec(GetParam());
  std::vector<uint8_t> in(5000);
  Rng rng(3);
  for (auto& b : in) b = static_cast<uint8_t>(rng.UniformInt(0, 3));
  auto compressed = codec.Compress(in);
  ASSERT_GT(compressed.size(), 4u);
  auto r = codec.Decompress(compressed.data(), compressed.size() / 2,
                            in.size());
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, CompressionRatiosOrdered) {
  // On repetitive columnar data: heavy <= lz (heavy never worse), and both
  // do substantially better than raw.
  std::vector<int64_t> values;
  Rng rng(17);
  int64_t v = 0;
  for (int i = 0; i < 50000; ++i) {
    v += rng.UniformInt(0, 3);
    values.push_back(v % 1000);
  }
  std::vector<uint8_t> in(values.size() * sizeof(int64_t));
  std::memcpy(in.data(), values.data(), in.size());
  size_t lz = GetCodec(CodecId::kLz).Compress(in).size();
  size_t heavy = GetCodec(CodecId::kHeavy).Compress(in).size();
  EXPECT_LE(heavy, lz);
  EXPECT_LT(heavy, in.size() / 2);
}

TEST(CodecTest, RleCompressesRuns) {
  std::vector<uint8_t> in(100000, 0);
  size_t rle = GetCodec(CodecId::kRle).Compress(in).size();
  EXPECT_LT(rle, in.size() / 40);
}

TEST(CodecTest, NamesRoundTrip) {
  for (CodecId id : {CodecId::kNone, CodecId::kRle, CodecId::kLz,
                     CodecId::kHeavy}) {
    auto r = CodecFromName(CodecName(id));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, id);
  }
  EXPECT_FALSE(CodecFromName("gzip").ok());
}

TEST(CodecTest, CpuCostModelOrdering) {
  // Heavier codecs must cost more virtual CPU per output byte.
  EXPECT_LT(GetCodec(CodecId::kNone).DecompressCpuSecondsPerByte(),
            GetCodec(CodecId::kRle).DecompressCpuSecondsPerByte());
  EXPECT_LT(GetCodec(CodecId::kRle).DecompressCpuSecondsPerByte(),
            GetCodec(CodecId::kLz).DecompressCpuSecondsPerByte());
  EXPECT_LT(GetCodec(CodecId::kLz).DecompressCpuSecondsPerByte(),
            GetCodec(CodecId::kHeavy).DecompressCpuSecondsPerByte());
}

TEST(CodecTest, LzHandlesOverlappingMatches) {
  // "abcabcabc..." forces offset < match length (self-overlapping copy).
  std::vector<uint8_t> in;
  for (int i = 0; i < 3000; ++i) in.push_back("abc"[i % 3]);
  EXPECT_EQ(RoundTrip(GetCodec(CodecId::kLz), in), in);
  EXPECT_EQ(RoundTrip(GetCodec(CodecId::kHeavy), in), in);
}

TEST(CodecTest, LongLiteralRunsUseExtendedLengths) {
  // Incompressible block > 15 literals exercises extended length paths.
  Rng rng(23);
  std::vector<uint8_t> in(1000);
  for (auto& b : in) b = static_cast<uint8_t>(rng.Next());
  EXPECT_EQ(RoundTrip(GetCodec(CodecId::kLz), in), in);
}

// ---------------------------------------------------------------------------
// Byte identity with the oracle
// ---------------------------------------------------------------------------

constexpr Shape kShapes[] = {Shape::kRandom, Shape::kSmallRangeInt64,
                             Shape::kRuns};
constexpr CodecId kLzCodecs[] = {CodecId::kLz, CodecId::kHeavy};

TEST(LzIdentityTest, MatchesOracleOnEveryShapeAndSize) {
  for (CodecId id : kLzCodecs) {
    for (Shape shape : kShapes) {
      for (size_t size : IdentitySizes()) {
        auto in = ShapedInput(shape, size, 1000 + size);
        ASSERT_EQ(GetCodec(id).Compress(in), OracleCompress(id, in))
            << CodecName(id) << " shape " << static_cast<int>(shape)
            << " size " << size;
      }
    }
  }
}

TEST(LzIdentityTest, BackToBackCallsGrowingThenShrinking) {
  // One thread, so one set of reused match tables: each call must ignore
  // whatever the previous, larger or smaller, call left in them. Inputs
  // depend on (shape, size) only, so the shrinking pass repeats the
  // growing pass's inputs — the 300000-byte ones twice in a row — with both
  // codecs (different windows) interleaved on the same tables.
  std::vector<size_t> order = IdentitySizes();
  order.insert(order.end(), IdentitySizes().rbegin(), IdentitySizes().rend());
  for (size_t size : order) {
    for (Shape shape : kShapes) {
      auto in = ShapedInput(shape, size, 7 * size + static_cast<int>(shape));
      for (CodecId id : kLzCodecs) {
        ASSERT_EQ(GetCodec(id).Compress(in), OracleCompress(id, in))
            << CodecName(id) << " shape " << static_cast<int>(shape)
            << " size " << size;
      }
    }
  }
}

TEST(LzIdentityTest, FileWriterChunksMatchOracle) {
  // The writer compresses column chunk after column chunk through the
  // reused match tables. Every stored chunk must be the oracle's
  // compression of its encoded bytes.
  const size_t rows = 30000;
  Rng rng(11);
  std::vector<int64_t> small, keys;
  std::vector<double> prices;
  for (size_t i = 0; i < rows; ++i) {
    small.push_back(rng.UniformInt(0, 50));
    keys.push_back(static_cast<int64_t>(i / 3));
    prices.push_back(rng.Uniform(0, 1000));
  }
  auto schema = std::make_shared<engine::Schema>(std::vector<engine::Field>{
      {"small", engine::DataType::kInt64},
      {"key", engine::DataType::kInt64},
      {"price", engine::DataType::kFloat64}});
  engine::TableChunk table(schema, {engine::Column::Int64(std::move(small)),
                                    engine::Column::Int64(std::move(keys)),
                                    engine::Column::Float64(std::move(prices))});
  for (CodecId id : kLzCodecs) {
    format::WriterOptions opts;
    opts.codec = id;
    opts.row_group_rows = 7000;  // Four full groups and a 2000-row tail.
    auto file = format::FileWriter::WriteTable(table, opts);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    uint32_t footer_len;
    std::memcpy(&footer_len, file->data() + file->size() - 8, 4);
    auto meta = format::FileMetadata::Parse(
        file->data() + file->size() - 8 - footer_len, footer_len);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    ASSERT_EQ(meta->row_groups.size(), 5u);
    for (const auto& rg : meta->row_groups) {
      for (const auto& cc : rg.columns) {
        const uint8_t* stored = file->data() + cc.offset;
        auto raw = GetCodec(id).Decompress(stored, cc.compressed_size,
                                           cc.uncompressed_size);
        ASSERT_TRUE(raw.ok()) << raw.status().ToString();
        EXPECT_EQ(std::vector<uint8_t>(stored, stored + cc.compressed_size),
                  OracleCompress(id, *raw))
            << CodecName(id);
      }
    }
  }
}

}  // namespace
}  // namespace lambada::compress
