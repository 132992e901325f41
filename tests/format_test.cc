#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cloud/cloud.h"
#include "common/rng.h"
#include "common/units.h"
#include "engine/table.h"
#include "format/encoding.h"
#include "format/metadata.h"
#include "format/reader.h"
#include "format/source.h"
#include "format/writer.h"

namespace lambada::format {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::SchemaPtr;
using engine::TableChunk;

SchemaPtr TwoColumnSchema() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"id", DataType::kInt64}, {"price", DataType::kFloat64}});
}

TableChunk MakeTable(size_t rows, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<int64_t> ids;
  std::vector<double> prices;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<int64_t>(i));
    prices.push_back(rng.Uniform(0, 1000));
  }
  return TableChunk(TwoColumnSchema(),
                    {Column::Int64(std::move(ids)),
                     Column::Float64(std::move(prices))});
}

/// Opens a reader over in-memory bytes and reads everything back.
TableChunk ReadAll(const std::vector<uint8_t>& file,
                   std::vector<int> columns = {}) {
  sim::Simulator sim;
  auto source = std::make_shared<InMemorySource>(
      Buffer::FromVector(std::vector<uint8_t>(file)));
  TableChunk out;
  bool done = false;
  sim::Spawn([](std::shared_ptr<InMemorySource> src, std::vector<int> cols,
                TableChunk* result, bool* flag) -> sim::Async<void> {
    auto reader = co_await FileReader::Open(src);
    CO_ASSERT_TRUE(reader.ok());
    std::vector<int> proj = cols;
    if (proj.empty()) {
      for (size_t i = 0; i < (*reader)->schema()->num_fields(); ++i) {
        proj.push_back(static_cast<int>(i));
      }
    }
    std::vector<TableChunk> chunks;
    for (int rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
      auto chunk = co_await (*reader)->ReadRowGroup(rg, proj);
      CO_ASSERT_TRUE(chunk.ok());
      chunks.push_back(*std::move(chunk));
    }
    auto all = engine::ConcatChunks(chunks);
    CO_ASSERT_TRUE(all.ok());
    *result = *std::move(all);
    *flag = true;
  }(source, std::move(columns), &out, &done));
  sim.Run();
  EXPECT_TRUE(done);
  return out;
}

// ---------------------------------------------------------------------------
// Encodings
// ---------------------------------------------------------------------------

TEST(EncodingTest, PlainRoundTripInt64) {
  Column c = Column::Int64({1, -5, 1000000, 0});
  auto bytes = EncodeColumn(c, Encoding::kPlain);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                           Encoding::kPlain, 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->i64(), c.i64());
}

TEST(EncodingTest, PlainRoundTripFloat64) {
  Column c = Column::Float64({1.5, -2.25, 0.0, 1e300});
  auto bytes = EncodeColumn(c, Encoding::kPlain);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kFloat64,
                           Encoding::kPlain, 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->f64(), c.f64());
}

TEST(EncodingTest, DeltaRoundTripAndCompact) {
  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < 10000; ++i) sorted.push_back(10000 + i / 3);
  Column c = Column::Int64(sorted);
  auto bytes = EncodeColumn(c, Encoding::kDelta);
  ASSERT_TRUE(bytes.ok());
  // Sorted data: ~1 byte per value vs 8 plain.
  EXPECT_LT(bytes->size(), sorted.size() * 2);
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                           Encoding::kDelta, sorted.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->i64(), sorted);
}

TEST(EncodingTest, DeltaHandlesNegativesAndExtremes) {
  std::vector<int64_t> v = {INT64_MAX, INT64_MIN, 0, -1, 1};
  Column c = Column::Int64(v);
  auto bytes = EncodeColumn(c, Encoding::kDelta);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                           Encoding::kDelta, v.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->i64(), v);
}

TEST(EncodingTest, DictRoundTripLowCardinality) {
  Rng rng(3);
  std::vector<int64_t> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.UniformInt(0, 2));
  Column c = Column::Int64(v);
  auto bytes = EncodeColumn(c, Encoding::kDict);
  ASSERT_TRUE(bytes.ok());
  EXPECT_LT(bytes->size(), v.size() * 2);
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                           Encoding::kDict, v.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->i64(), v);
}

TEST(EncodingTest, DeltaRejectedForFloat) {
  Column c = Column::Float64({1.0});
  EXPECT_FALSE(EncodeColumn(c, Encoding::kDelta).ok());
  EXPECT_FALSE(EncodeColumn(c, Encoding::kDict).ok());
}

TEST(EncodingTest, AutoPicksCompactEncoding) {
  // Low-cardinality: dict or delta must beat plain.
  Rng rng(9);
  std::vector<int64_t> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.UniformInt(0, 4));
  auto enc = EncodeColumnAuto(Column::Int64(v));
  EXPECT_NE(enc.encoding, Encoding::kPlain);
  EXPECT_LT(enc.bytes.size(), v.size() * 8);
}

TEST(EncodingTest, RleRoundTripInt64Runs) {
  std::vector<int64_t> v;
  for (int run = 0; run < 50; ++run) {
    for (int i = 0; i < run + 1; ++i) v.push_back(run * 7 - 100);
  }
  Column c = Column::Int64(v);
  auto bytes = EncodeColumn(c, Encoding::kRle);
  ASSERT_TRUE(bytes.ok());
  EXPECT_LT(bytes->size(), v.size());  // 50 runs, ~3 bytes each.
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                           Encoding::kRle, v.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->i64(), v);
}

TEST(EncodingTest, RleRoundTripFloat64BitPatterns) {
  // Bit-pattern equality must round-trip NaN and signed zeros exactly.
  const double nan = std::nan("");
  std::vector<double> v = {0.0,  0.0, -0.0, -0.0, nan, nan,
                           1e300, 1e300, -1.5};
  Column c = Column::Float64(v);
  auto bytes = EncodeColumn(c, Encoding::kRle);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kFloat64,
                           Encoding::kRle, v.size());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->f64().size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &back->f64()[i], 8);
    std::memcpy(&b, &v[i], 8);
    EXPECT_EQ(a, b) << "row " << i;
  }
}

TEST(EncodingTest, RleExtremesAndSingleValue) {
  for (std::vector<int64_t> v :
       {std::vector<int64_t>{INT64_MAX}, std::vector<int64_t>{INT64_MIN},
        std::vector<int64_t>{INT64_MAX, INT64_MIN, INT64_MAX},
        std::vector<int64_t>{0}}) {
    auto bytes = EncodeColumn(Column::Int64(v), Encoding::kRle);
    ASSERT_TRUE(bytes.ok());
    auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                             Encoding::kRle, v.size());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->i64(), v);
  }
}

/// Property-style round trips: random run lengths and cardinalities, for
/// every encoding applicable to the generated column.
TEST(EncodingTest, PropertyRoundTripsAllEncodings) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    size_t n = static_cast<size_t>(rng.UniformInt(0, 5000));
    int64_t cardinality = rng.UniformInt(1, 64);
    int64_t max_run = rng.UniformInt(1, 50);
    std::vector<int64_t> vi;
    while (vi.size() < n) {
      int64_t value = rng.UniformInt(-cardinality, cardinality) * 1000003;
      int64_t run = rng.UniformInt(1, max_run);
      for (int64_t r = 0; r < run && vi.size() < n; ++r) vi.push_back(value);
    }
    Column ci = Column::Int64(vi);
    for (Encoding e : {Encoding::kPlain, Encoding::kDelta, Encoding::kDict,
                       Encoding::kRle}) {
      auto bytes = EncodeColumn(ci, e);
      ASSERT_TRUE(bytes.ok()) << "seed " << seed;
      auto back = DecodeColumn(bytes->data(), bytes->size(),
                               DataType::kInt64, e, vi.size());
      ASSERT_TRUE(back.ok()) << "seed " << seed << " encoding "
                             << static_cast<int>(e);
      EXPECT_EQ(back->i64(), vi) << "seed " << seed;
    }
    std::vector<double> vf;
    for (size_t i = 0; i < n; ++i) {
      vf.push_back(static_cast<double>(vi[i]) * 0.25);
    }
    Column cf = Column::Float64(vf);
    for (Encoding e : {Encoding::kPlain, Encoding::kRle}) {
      auto bytes = EncodeColumn(cf, e);
      ASSERT_TRUE(bytes.ok());
      auto back = DecodeColumn(bytes->data(), bytes->size(),
                               DataType::kFloat64, e, vf.size());
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back->f64(), vf) << "seed " << seed;
    }
    // Auto-selection round-trips whatever it picked.
    auto auto_i = EncodeColumnAuto(ci);
    auto back_i = DecodeColumn(auto_i.bytes.data(), auto_i.bytes.size(),
                               DataType::kInt64, auto_i.encoding, vi.size());
    ASSERT_TRUE(back_i.ok());
    EXPECT_EQ(back_i->i64(), vi) << "seed " << seed;
  }
}

TEST(EncodingTest, EmptyColumnsRoundTrip) {
  for (Encoding e : {Encoding::kPlain, Encoding::kDelta, Encoding::kDict,
                     Encoding::kRle}) {
    Column c = Column::Int64({});
    auto bytes = EncodeColumn(c, e);
    ASSERT_TRUE(bytes.ok());
    auto back =
        DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64, e, 0);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size(), 0u);
  }
}

TEST(EncodingTest, AutoPrefersDictNearTies) {
  // Small-range ints: dict codes and delta varints are both one byte per
  // value, delta marginally smaller. Dict must still win (only it supports
  // code-range predicate push-down).
  Rng rng(11);
  std::vector<int64_t> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.UniformInt(0, 6));
  auto enc = EncodeColumnAuto(Column::Int64(v));
  EXPECT_EQ(enc.encoding, Encoding::kDict);
}

TEST(EncodingTest, AutoPrefersDictWhenRleIsMarginallySmaller) {
  // Large-magnitude low-cardinality values in runs averaging 4.25: dict
  // codes are one byte per value, run-length lands a few percent SMALLER
  // (one 1-byte length + one multi-byte value delta per run), and delta
  // pays the multi-byte boundary jumps. Order: rle < dict < delta <
  // plain, with dict within the 5% preference window — dict must still
  // win (regression: the tie-break used to inspect a moved-from buffer
  // and silently fall through to rle).
  std::vector<int64_t> v;
  int value = 0;
  for (int run = 0; v.size() < 21000; ++run) {
    int len = (run % 4 == 3) ? 5 : 4;
    for (int i = 0; i < len; ++i) v.push_back((value % 7 + 1) * 1000000);
    ++value;
  }
  Column c = Column::Int64(v);
  size_t rle = EncodeColumn(c, Encoding::kRle)->size();
  size_t dict = EncodeColumn(c, Encoding::kDict)->size();
  size_t delta = EncodeColumn(c, Encoding::kDelta)->size();
  ASSERT_LT(rle, dict) << "fixture must make rle the raw winner";
  ASSERT_LT(dict, delta);
  ASSERT_LE(static_cast<double>(dict), 1.05 * static_cast<double>(rle))
      << "fixture must land dict inside the preference window";
  EXPECT_EQ(EncodeColumnAuto(c).encoding, Encoding::kDict);
}

TEST(EncodingTest, DictViewMatchesMaterialization) {
  Rng rng(13);
  std::vector<int64_t> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.UniformInt(0, 9) * 123457);
  auto bytes = EncodeColumn(Column::Int64(v), Encoding::kDict);
  ASSERT_TRUE(bytes.ok());
  auto view = DecodeDictView(bytes->data(), bytes->size(), v.size());
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(std::is_sorted(view->values.begin(), view->values.end()));
  EXPECT_EQ(MaterializeDictView(*view).i64(), v);
}

/// The dictionary encoding as the spec defines it, built on a std::map:
/// varint(size), zigzag deltas of the sorted distinct values, then one
/// varint code (the value's rank) per row. Deltas wrap in uint64.
std::vector<uint8_t> ReferenceDictEncode(const std::vector<int64_t>& v) {
  std::vector<uint8_t> out;
  auto varint = [&out](uint64_t x) {
    while (x >= 0x80) {
      out.push_back(static_cast<uint8_t>(x) | 0x80);
      x >>= 7;
    }
    out.push_back(static_cast<uint8_t>(x));
  };
  std::map<int64_t, uint32_t> dict;
  for (int64_t x : v) dict.emplace(x, 0);
  uint32_t next = 0;
  for (auto& [value, code] : dict) code = next++;
  varint(dict.size());
  uint64_t prev = 0;
  for (const auto& [value, code] : dict) {
    const uint64_t delta = static_cast<uint64_t>(value) - prev;
    varint((delta << 1) ^ (static_cast<int64_t>(delta) < 0 ? ~uint64_t{0}
                                                           : uint64_t{0}));
    prev = static_cast<uint64_t>(value);
  }
  for (int64_t x : v) varint(dict.at(x));
  return out;
}

TEST(EncodingTest, DictMatchesMapReference) {
  std::vector<std::vector<int64_t>> columns = {
      {},
      {42},
      {INT64_MIN},
      {INT64_MAX, INT64_MIN, 0, INT64_MAX, -1, INT64_MIN},
      std::vector<int64_t>(1000, -7),  // All duplicates.
  };
  Rng rng(21);
  for (int64_t range : {3, 300, 1000000000}) {
    std::vector<int64_t> v;
    for (int i = 0; i < 4000; ++i) v.push_back(rng.UniformInt(-range, range));
    columns.push_back(std::move(v));
  }
  std::vector<int64_t> unique_keys;  // l_orderkey-like: every value once.
  for (int64_t i = 0; i < 3000; ++i) unique_keys.push_back(i * 4 + 1);
  columns.push_back(std::move(unique_keys));
  for (const auto& v : columns) {
    auto bytes = EncodeColumn(Column::Int64(v), Encoding::kDict);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, ReferenceDictEncode(v)) << "rows " << v.size();
    auto back = DecodeColumn(bytes->data(), bytes->size(), DataType::kInt64,
                             Encoding::kDict, v.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->i64(), v);
  }
}

TEST(EncodingTest, CorruptDataFailsCleanly) {
  std::vector<uint8_t> garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  EXPECT_FALSE(DecodeColumn(garbage.data(), garbage.size(),
                            DataType::kInt64, Encoding::kDelta, 100)
                   .ok());
  EXPECT_FALSE(DecodeColumn(garbage.data(), garbage.size(),
                            DataType::kInt64, Encoding::kDict, 100)
                   .ok());
  EXPECT_FALSE(DecodeColumn(garbage.data(), garbage.size(),
                            DataType::kInt64, Encoding::kPlain, 100)
                   .ok());
  EXPECT_FALSE(DecodeColumn(garbage.data(), garbage.size(),
                            DataType::kInt64, Encoding::kRle, 100)
                   .ok());
  // RLE runs must cover exactly num_rows: a run overshooting the column is
  // corruption, not padding.
  auto good = EncodeColumn(Column::Int64({1, 1, 1, 2}), Encoding::kRle);
  ASSERT_TRUE(good.ok());
  EXPECT_FALSE(DecodeColumn(good->data(), good->size(), DataType::kInt64,
                            Encoding::kRle, 3)
                   .ok());
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

TEST(MetadataTest, StatsComputed) {
  auto s = ColumnStats::Compute(Column::Int64({5, -2, 9}));
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.min_i64, -2);
  EXPECT_EQ(s.max_i64, 9);
  auto f = ColumnStats::Compute(Column::Float64({1.5, 0.25}));
  EXPECT_DOUBLE_EQ(f.min_f64, 0.25);
  EXPECT_DOUBLE_EQ(f.max_f64, 1.5);
  auto e = ColumnStats::Compute(Column::Int64({}));
  EXPECT_FALSE(e.valid);
}

TEST(MetadataTest, FooterRoundTrip) {
  FileMetadata meta;
  meta.schema = *TwoColumnSchema();
  meta.num_rows = 100;
  RowGroupMeta rg;
  rg.num_rows = 100;
  ColumnChunkMeta c0;
  c0.offset = 4;
  c0.compressed_size = 50;
  c0.uncompressed_size = 800;
  c0.encoding = Encoding::kDelta;
  c0.codec = compress::CodecId::kHeavy;
  c0.stats.valid = true;
  c0.stats.min_i64 = 0;
  c0.stats.max_i64 = 99;
  ColumnChunkMeta c1;
  c1.offset = 54;
  c1.compressed_size = 700;
  c1.uncompressed_size = 800;
  c1.codec = compress::CodecId::kLz;
  c1.stats.valid = true;
  c1.stats.min_f64 = 0.5;
  c1.stats.max_f64 = 999.5;
  rg.columns = {c0, c1};
  meta.row_groups.push_back(rg);

  auto bytes = meta.Serialize();
  auto parsed = FileMetadata::Parse(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, meta.schema);
  EXPECT_EQ(parsed->num_rows, 100u);
  ASSERT_EQ(parsed->row_groups.size(), 1u);
  const auto& prg = parsed->row_groups[0];
  EXPECT_EQ(prg.columns[0].stats.max_i64, 99);
  EXPECT_EQ(prg.columns[0].encoding, Encoding::kDelta);
  EXPECT_EQ(prg.columns[1].codec, compress::CodecId::kLz);
  EXPECT_DOUBLE_EQ(prg.columns[1].stats.max_f64, 999.5);
}

TEST(MetadataTest, ParseRejectsCorruption) {
  FileMetadata meta;
  meta.schema = *TwoColumnSchema();
  auto bytes = meta.Serialize();
  // Truncated.
  EXPECT_FALSE(FileMetadata::Parse(bytes.data(), bytes.size() / 2).ok());
  // Bad version.
  auto bad = bytes;
  bad[0] = 99;
  EXPECT_FALSE(FileMetadata::Parse(bad.data(), bad.size()).ok());
}

// ---------------------------------------------------------------------------
// Writer + Reader round trips
// ---------------------------------------------------------------------------

class WriterCodecTest : public ::testing::TestWithParam<compress::CodecId> {};

INSTANTIATE_TEST_SUITE_P(Codecs, WriterCodecTest,
                         ::testing::Values(compress::CodecId::kNone,
                                           compress::CodecId::kRle,
                                           compress::CodecId::kLz,
                                           compress::CodecId::kHeavy),
                         [](const auto& info) {
                           return std::string(
                               compress::CodecName(info.param));
                         });

TEST_P(WriterCodecTest, RoundTripAllCodecs) {
  TableChunk table = MakeTable(5000);
  WriterOptions opts;
  opts.codec = GetParam();
  opts.row_group_rows = 1024;
  auto file = FileWriter::WriteTable(table, opts);
  ASSERT_TRUE(file.ok());
  TableChunk back = ReadAll(*file);
  ASSERT_EQ(back.num_rows(), table.num_rows());
  EXPECT_EQ(back.column(0).i64(), table.column(0).i64());
  EXPECT_EQ(back.column(1).f64(), table.column(1).f64());
}

TEST(WriterTest, RowGroupsCutAtConfiguredSize) {
  TableChunk table = MakeTable(10000);
  WriterOptions opts;
  opts.row_group_rows = 3000;
  auto file = FileWriter::WriteTable(table, opts);
  ASSERT_TRUE(file.ok());
  sim::Simulator sim;
  auto source = std::make_shared<InMemorySource>(
      Buffer::FromVector(std::vector<uint8_t>(*file)));
  std::shared_ptr<FileReader> reader;
  sim::Spawn([](std::shared_ptr<InMemorySource> src,
                std::shared_ptr<FileReader>* out) -> sim::Async<void> {
    auto r = co_await FileReader::Open(src);
    CO_ASSERT_TRUE(r.ok());
    *out = *r;
  }(source, &reader));
  sim.Run();
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->num_row_groups(), 4);  // 3000+3000+3000+1000.
  EXPECT_EQ(reader->metadata().row_groups[3].num_rows, 1000u);
  EXPECT_EQ(reader->metadata().num_rows, 10000u);
}

TEST(WriterTest, MultipleAppendsAccumulate) {
  FileWriter writer(TwoColumnSchema(), WriterOptions{});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.Append(MakeTable(100, i)).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(ReadAll(*file).num_rows(), 500u);
}

TEST(WriterTest, AppendsAcrossGroupBoundariesMatchOneShotWrite) {
  // Appends of 130 rows against 300-row groups: groups are cut from the
  // middle of appended chunks and the remainder carries over. The bytes
  // must equal one write of the concatenated table.
  WriterOptions opts;
  opts.row_group_rows = 300;
  FileWriter writer(TwoColumnSchema(), opts);
  std::vector<TableChunk> parts;
  for (int i = 0; i < 7; ++i) {
    parts.push_back(MakeTable(130, i));
    ASSERT_TRUE(writer.Append(parts.back()).ok());
  }
  auto appended = writer.Finish();
  ASSERT_TRUE(appended.ok());
  auto all = engine::ConcatChunks(parts);
  ASSERT_TRUE(all.ok());
  auto one_shot = FileWriter::WriteTable(*all, opts);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(*appended, *one_shot);
}

TEST(WriterTest, EmptyTableProducesValidFile) {
  auto file = FileWriter::WriteTable(TableChunk::Empty(TwoColumnSchema()));
  ASSERT_TRUE(file.ok());
  TableChunk back = ReadAll(*file);
  EXPECT_EQ(back.num_rows(), 0u);
}

TEST(WriterTest, SchemaMismatchRejected) {
  FileWriter writer(TwoColumnSchema(), WriterOptions{});
  auto other = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::kInt64}});
  TableChunk wrong(other, {Column::Int64({1})});
  EXPECT_FALSE(writer.Append(wrong).ok());
}

/// A table whose columns auto-select four different encodings: sorted ints
/// (rle), a low-cardinality flag (dict), a strictly increasing key
/// (delta), and random doubles (plain).
TableChunk MixedEncodingTable(size_t rows) {
  Rng rng(17);
  std::vector<int64_t> sorted, flag, key;
  std::vector<double> noise;
  int64_t date = 8000;
  for (size_t i = 0; i < rows; ++i) {
    if (rng.UniformInt(0, 200) == 0) ++date;
    sorted.push_back(date);
    flag.push_back(rng.UniformInt(0, 3));
    key.push_back(static_cast<int64_t>(i) * 7 +
                  rng.UniformInt(0, 6));  // Increasing, irregular steps.
    noise.push_back(rng.Uniform(0, 1e9));
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"sorted", DataType::kInt64},
      {"flag", DataType::kInt64},
      {"key", DataType::kInt64},
      {"noise", DataType::kFloat64}});
  return TableChunk(schema,
                    {Column::Int64(std::move(sorted)),
                     Column::Int64(std::move(flag)),
                     Column::Int64(std::move(key)),
                     Column::Float64(std::move(noise))});
}

TEST(WriterTest, MixedEncodingFileScansBack) {
  TableChunk table = MixedEncodingTable(20000);
  WriterOptions opts;
  opts.row_group_rows = 4096;
  auto reference = FileWriter::WriteTable(table, opts);
  ASSERT_TRUE(reference.ok());
  // The file actually mixes encodings.
  {
    uint32_t footer_len;
    std::memcpy(&footer_len, reference->data() + reference->size() - 8, 4);
    auto meta = FileMetadata::Parse(
        reference->data() + reference->size() - 8 - footer_len, footer_len);
    ASSERT_TRUE(meta.ok());
    std::set<Encoding> used;
    for (const auto& rg : meta->row_groups) {
      for (const auto& cc : rg.columns) used.insert(cc.encoding);
    }
    EXPECT_EQ(used.size(), 4u) << "expected rle+dict+delta+plain";
  }
  // And the mixed file scans back to the original rows.
  TableChunk back = ReadAll(*reference);
  ASSERT_EQ(back.num_rows(), table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).type() == DataType::kInt64) {
      EXPECT_EQ(back.column(c).i64(), table.column(c).i64());
    } else {
      EXPECT_EQ(back.column(c).f64(), table.column(c).f64());
    }
  }
}

TEST(ReaderTest, ProjectionReadsOnlyRequestedColumns) {
  TableChunk table = MakeTable(2000);
  auto file = FileWriter::WriteTable(table, WriterOptions{});
  ASSERT_TRUE(file.ok());
  TableChunk back = ReadAll(*file, {1});
  ASSERT_EQ(back.num_columns(), 1u);
  EXPECT_EQ(back.schema()->field(0).name, "price");
  EXPECT_EQ(back.column(0).f64(), table.column(1).f64());
}

TEST(ReaderTest, StatsEnableRowGroupPruning) {
  // The id column is sorted: each row group covers a distinct range.
  TableChunk table = MakeTable(9000);
  WriterOptions opts;
  opts.row_group_rows = 3000;
  auto file = FileWriter::WriteTable(table, opts);
  ASSERT_TRUE(file.ok());
  sim::Simulator sim;
  auto source = std::make_shared<InMemorySource>(
      Buffer::FromVector(std::vector<uint8_t>(*file)));
  std::shared_ptr<FileReader> reader;
  sim::Spawn([](std::shared_ptr<InMemorySource> src,
                std::shared_ptr<FileReader>* out) -> sim::Async<void> {
    auto r = co_await FileReader::Open(src);
    CO_ASSERT_TRUE(r.ok());
    *out = *r;
  }(source, &reader));
  sim.Run();
  ASSERT_NE(reader, nullptr);
  const auto& rgs = reader->metadata().row_groups;
  ASSERT_EQ(rgs.size(), 3u);
  EXPECT_EQ(rgs[0].columns[0].stats.min_i64, 0);
  EXPECT_EQ(rgs[0].columns[0].stats.max_i64, 2999);
  EXPECT_EQ(rgs[2].columns[0].stats.min_i64, 6000);
  EXPECT_EQ(rgs[2].columns[0].stats.max_i64, 8999);
}

TEST(ReaderTest, DictBoundsPreFilterRows) {
  TableChunk table = MixedEncodingTable(8000);
  WriterOptions wo;
  wo.row_group_rows = 2048;
  auto file = FileWriter::WriteTable(table, wo);
  ASSERT_TRUE(file.ok());
  sim::Simulator sim;
  auto source = std::make_shared<InMemorySource>(
      Buffer::FromVector(std::vector<uint8_t>(*file)));
  TableChunk got;
  int64_t dict_filtered = 0;
  bool empty_bound_empty = true;
  sim::Spawn([](std::shared_ptr<InMemorySource> src, TableChunk* out,
                int64_t* filtered, bool* all_empty) -> sim::Async<void> {
    auto reader = co_await FileReader::Open(src);
    CO_ASSERT_TRUE(reader.ok());
    // "flag" is column 1 and dict-encoded; keep only flag == 2.
    std::map<int, ColumnBound> bounds;
    bounds.emplace(1, ColumnBound{2.0, 2.0});
    std::vector<int> proj;
    proj.push_back(0);
    proj.push_back(1);
    proj.push_back(3);
    std::vector<TableChunk> chunks;
    for (int rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
      auto chunk = co_await (*reader)->ReadRowGroup(rg, proj, 1, &bounds);
      CO_ASSERT_TRUE(chunk.ok());
      chunks.push_back(*std::move(chunk));
    }
    auto all = engine::ConcatChunks(chunks);
    CO_ASSERT_TRUE(all.ok());
    *out = *std::move(all);
    *filtered = (*reader)->rows_dict_filtered();
    // A bound no dictionary value intersects empties every row group
    // without decoding the other columns.
    std::map<int, ColumnBound> nothing;
    nothing.emplace(1, ColumnBound{100.0, 200.0});
    for (int rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
      auto chunk = co_await (*reader)->ReadRowGroup(rg, proj, 1, &nothing);
      CO_ASSERT_TRUE(chunk.ok());
      *all_empty = *all_empty && chunk->num_rows() == 0;
    }
  }(source, &got, &dict_filtered, &empty_bound_empty));
  sim.Run();
  // Reference: the rows of the original table with flag == 2.
  std::vector<bool> keep(table.num_rows());
  size_t expect = 0;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    keep[i] = table.column(1).i64()[i] == 2;
    if (keep[i]) ++expect;
  }
  auto reference = table.Filter(keep).Project({0, 1, 3});
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(got.num_rows(), expect);
  EXPECT_EQ(dict_filtered,
            static_cast<int64_t>(table.num_rows() - expect));
  EXPECT_EQ(got.column(0).i64(), reference->column(0).i64());
  EXPECT_EQ(got.column(1).i64(), reference->column(1).i64());
  EXPECT_EQ(got.column(2).f64(), reference->column(2).f64());
  EXPECT_TRUE(empty_bound_empty);
}

TEST(ReaderTest, CoalescingMergesAdjacentRequests) {
  TableChunk table = MakeTable(6000);
  WriterOptions wo;
  wo.row_group_rows = 2048;
  auto file = FileWriter::WriteTable(table, wo);
  ASSERT_TRUE(file.ok());
  auto run = [&](int64_t gap) -> std::pair<int64_t, TableChunk> {
    cloud::Cloud cloud;
    LAMBADA_CHECK_OK(cloud.s3().CreateBucket("data"));
    LAMBADA_CHECK_OK(cloud.s3().PutDirect(
        "data", "t.lpq", Buffer::FromVector(std::vector<uint8_t>(*file))));
    TableChunk out;
    sim::Spawn([](cloud::Cloud* c, int64_t gap_bytes,
                  TableChunk* result) -> sim::Async<void> {
      cloud::S3Client client(&c->s3(), c->driver_net());
      auto source = std::make_shared<S3Source>(client, "data", "t.lpq");
      ReaderOptions opts;
      opts.sim = &c->sim();
      opts.coalesce_gap_bytes = gap_bytes;
      auto reader = co_await FileReader::Open(source, opts);
      CO_ASSERT_TRUE(reader.ok());
      std::vector<int> proj = {0, 1};
      std::vector<TableChunk> chunks;
      for (int rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
        auto chunk = co_await (*reader)->ReadRowGroup(rg, proj, 2);
        CO_ASSERT_TRUE(chunk.ok());
        chunks.push_back(*std::move(chunk));
      }
      auto all = engine::ConcatChunks(chunks);
      CO_ASSERT_TRUE(all.ok());
      *result = *std::move(all);
    }(&cloud, gap, &out));
    cloud.sim().Run();
    return {cloud.ledger().totals().s3_get_requests, out};
  };
  auto [gets_coalesced, rows_coalesced] = run(1024 * 1024);
  auto [gets_split, rows_split] = run(0);
  // 3 row groups x 2 adjacent column chunks: coalescing halves the data
  // GETs (footer read + 3 vs footer read + 6)...
  EXPECT_EQ(gets_coalesced, 4);
  EXPECT_EQ(gets_split, 7);
  // ...and never changes the bytes produced.
  EXPECT_EQ(rows_coalesced.column(0).i64(), rows_split.column(0).i64());
  EXPECT_EQ(rows_coalesced.column(1).f64(), rows_split.column(1).f64());
}

TEST(ReaderTest, BytesFetchedTracksProjection) {
  TableChunk table = MakeTable(6000);
  auto file = FileWriter::WriteTable(table, WriterOptions{});
  ASSERT_TRUE(file.ok());
  auto bytes_for = [&](std::vector<int> proj) {
    sim::Simulator sim;
    auto source = std::make_shared<InMemorySource>(
        Buffer::FromVector(std::vector<uint8_t>(*file)));
    int64_t fetched = 0;
    sim::Spawn([](std::shared_ptr<InMemorySource> src, std::vector<int> cols,
                  int64_t* out) -> sim::Async<void> {
      auto reader = co_await FileReader::Open(src);
      CO_ASSERT_TRUE(reader.ok());
      for (int rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
        auto chunk = co_await (*reader)->ReadRowGroup(rg, cols);
        CO_ASSERT_TRUE(chunk.ok());
      }
      *out = (*reader)->bytes_fetched();
    }(source, std::move(proj), &fetched));
    sim.Run();
    return fetched;
  };
  int64_t both = bytes_for({0, 1});
  int64_t one = bytes_for({1});
  EXPECT_GT(one, 0);
  EXPECT_GT(both, one);  // Projection narrows the bytes moved.
}

TEST(ReaderTest, CorruptMagicRejected) {
  auto file = FileWriter::WriteTable(MakeTable(100));
  ASSERT_TRUE(file.ok());
  auto bad = *file;
  bad[bad.size() - 1] = 'X';
  sim::Simulator sim;
  auto source = std::make_shared<InMemorySource>(
      Buffer::FromVector(std::move(bad)));
  Status status = Status::OK();
  sim::Spawn([](std::shared_ptr<InMemorySource> src,
                Status* out) -> sim::Async<void> {
    auto r = co_await FileReader::Open(src);
    *out = r.status();
  }(source, &status));
  sim.Run();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// S3Source integration (chunked concurrent reads, request accounting)
// ---------------------------------------------------------------------------

TEST(S3SourceTest, ReadsThroughSimulatedS3) {
  cloud::Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("data").ok());
  TableChunk table = MakeTable(4000);
  auto file = FileWriter::WriteTable(table, WriterOptions{});
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      cloud.s3().PutDirect("data", "t.lpq", Buffer::FromVector(*file)).ok());

  TableChunk back;
  sim::Spawn([](cloud::Cloud* c, TableChunk* out) -> sim::Async<void> {
    cloud::S3Client client(&c->s3(), c->driver_net());
    auto source = std::make_shared<S3Source>(client, "data", "t.lpq");
    ReaderOptions opts;
    opts.sim = &c->sim();
    auto reader = co_await FileReader::Open(source, opts);
    CO_ASSERT_TRUE(reader.ok());
    std::vector<TableChunk> chunks;
    std::vector<int> proj = {0, 1};
    for (int rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
      auto chunk = co_await (*reader)->ReadRowGroup(rg, proj, 4);
      CO_ASSERT_TRUE(chunk.ok());
      chunks.push_back(*std::move(chunk));
    }
    auto all = engine::ConcatChunks(chunks);
    *out = *std::move(all);
  }(&cloud, &back));
  cloud.sim().Run();
  ASSERT_EQ(back.num_rows(), 4000u);
  EXPECT_EQ(back.column(0).i64(), table.column(0).i64());
  // Footer read + ONE coalesced GET for the adjacent column chunks (they
  // are contiguous in the file, so the default gap budget merges them).
  EXPECT_EQ(cloud.ledger().totals().s3_get_requests, 2);
}

TEST(S3SourceTest, ChunkedReadSplitsRequests) {
  cloud::Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("data").ok());
  std::vector<uint8_t> blob(10 * kMiB);
  Rng rng(5);
  for (auto& b : blob) b = static_cast<uint8_t>(rng.Next());
  auto expected = blob;
  ASSERT_TRUE(cloud.s3()
                  .PutDirect("data", "blob", Buffer::FromVector(std::move(blob)))
                  .ok());
  S3Source::Options opts;
  opts.chunk_bytes = 1 * kMiB;
  opts.connections = 4;
  std::vector<uint8_t> got;
  int64_t requests = 0;
  sim::Spawn([](cloud::Cloud* c, S3Source::Options o,
                std::vector<uint8_t>* out, int64_t* reqs) -> sim::Async<void> {
    cloud::S3Client client(&c->s3(), c->driver_net());
    S3Source source(client, "data", "blob", o);
    auto r = co_await source.ReadAt(0, 10 * kMiB);
    CO_ASSERT_TRUE(r.ok());
    out->assign((*r)->data(), (*r)->data() + (*r)->size());
    *reqs = source.request_count();
  }(&cloud, opts, &got, &requests));
  cloud.sim().Run();
  EXPECT_EQ(got, expected);
  EXPECT_EQ(requests, 10);  // 10 MiB / 1 MiB chunks.
}

TEST(S3SourceTest, MissingObjectReportsNotFound) {
  cloud::Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("data").ok());
  Status status = Status::OK();
  sim::Spawn([](cloud::Cloud* c, Status* out) -> sim::Async<void> {
    cloud::S3Client client(&c->s3(), c->driver_net());
    S3Source source(client, "data", "missing");
    auto r = co_await source.ReadTail(1024);
    *out = r.status();
  }(&cloud, &status));
  cloud.sim().Run();
  EXPECT_TRUE(status.IsNotFound());
}

}  // namespace
}  // namespace lambada::format
