// Kernel microbenchmarks (google-benchmark): the real-CPU building blocks
// of the engine — codecs, encodings, partitioning, hash aggregation, and
// file round trips. These measure host CPU, complementing the virtual-time
// experiment harnesses.

#include <benchmark/benchmark.h>

#include <cstring>

#include "common/rng.h"
#include "compress/codec.h"
#include "engine/aggregate.h"
#include "engine/chunk_serde.h"
#include "engine/expr.h"
#include "engine/partition.h"
#include "format/encoding.h"
#include "format/reader.h"
#include "format/writer.h"

namespace {

using namespace lambada;  // NOLINT

std::vector<uint8_t> ColumnarBytes(size_t values) {
  Rng rng(42);
  std::vector<int64_t> v;
  v.reserve(values);
  for (size_t i = 0; i < values; ++i) v.push_back(rng.UniformInt(0, 1000));
  std::vector<uint8_t> bytes(values * 8);
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

// Argument: input bytes. 32 B and 2 KB are the column chunks of tiny row
// groups (many-file fleets), where a per-call fixed cost would dominate.
void BM_Compress(benchmark::State& state, compress::CodecId id) {
  auto input = ColumnarBytes(static_cast<size_t>(state.range(0)) / 8);
  const auto& codec = compress::GetCodec(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Compress(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          input.size());
}
BENCHMARK_CAPTURE(BM_Compress, rle, compress::CodecId::kRle)
    ->Arg(32)->Arg(2048)->Arg(8 << 16);
BENCHMARK_CAPTURE(BM_Compress, lz, compress::CodecId::kLz)
    ->Arg(32)->Arg(2048)->Arg(8 << 16);
BENCHMARK_CAPTURE(BM_Compress, heavy, compress::CodecId::kHeavy)
    ->Arg(32)->Arg(2048)->Arg(8 << 16);

void BM_Decompress(benchmark::State& state, compress::CodecId id) {
  auto input = ColumnarBytes(1 << 16);
  const auto& codec = compress::GetCodec(id);
  auto compressed = codec.Compress(input);
  for (auto _ : state) {
    auto out = codec.Decompress(compressed.data(), compressed.size(),
                                input.size());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          input.size());
}
BENCHMARK_CAPTURE(BM_Decompress, rle, compress::CodecId::kRle);
BENCHMARK_CAPTURE(BM_Decompress, lz, compress::CodecId::kLz);
BENCHMARK_CAPTURE(BM_Decompress, heavy, compress::CodecId::kHeavy);

void BM_DeltaEncode(benchmark::State& state) {
  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < (1 << 16); ++i) sorted.push_back(1000 + i / 3);
  engine::Column col = engine::Column::Int64(sorted);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        format::EncodeColumn(col, format::Encoding::kDelta));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          sorted.size() * 8);
}
BENCHMARK(BM_DeltaEncode);

// Argument: distinct values in a 64k-row column — a flag-like column (16)
// and a unique key like l_orderkey (65536). The auto-selector tries the
// dictionary on every int64 chunk, so both ends matter.
void BM_DictEncode(benchmark::State& state) {
  Rng rng(3);
  std::vector<int64_t> values;
  for (int64_t i = 0; i < (1 << 16); ++i) {
    values.push_back(state.range(0) >= (1 << 16)
                         ? i * 4 + 1
                         : rng.UniformInt(0, state.range(0) - 1));
  }
  engine::Column col = engine::Column::Int64(values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        format::EncodeColumn(col, format::Encoding::kDict));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          values.size() * 8);
}
BENCHMARK(BM_DictEncode)->Arg(16)->Arg(1 << 16);

engine::TableChunk BenchChunk(size_t rows) {
  Rng rng(7);
  std::vector<int64_t> keys;
  std::vector<double> vals;
  for (size_t i = 0; i < rows; ++i) {
    keys.push_back(rng.UniformInt(0, 4));
    vals.push_back(rng.NextDouble());
  }
  auto schema = std::make_shared<engine::Schema>(std::vector<engine::Field>{
      {"k", engine::DataType::kInt64}, {"v", engine::DataType::kFloat64}});
  return engine::TableChunk(schema, {engine::Column::Int64(std::move(keys)),
                                     engine::Column::Float64(
                                         std::move(vals))});
}

void BM_HashPartition(benchmark::State& state) {
  auto chunk = BenchChunk(1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::HashPartition(chunk, {0}, static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          chunk.num_rows());
}
BENCHMARK(BM_HashPartition)->Arg(16)->Arg(64);

void BM_HashAggregate(benchmark::State& state) {
  auto chunk = BenchChunk(1 << 16);
  for (auto _ : state) {
    engine::HashAggregator agg({"k"},
                               {engine::Sum(engine::Col("v"), "s"),
                                engine::Count("n")});
    benchmark::DoNotOptimize(agg.ConsumeInput(chunk));
    benchmark::DoNotOptimize(agg.Finalize());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          chunk.num_rows());
}
BENCHMARK(BM_HashAggregate);

void BM_ExprEvaluate(benchmark::State& state) {
  auto chunk = BenchChunk(1 << 16);
  auto expr = (engine::Col("v") >= engine::Lit(0.05)) &&
              (engine::Col("k") == engine::Lit(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->Evaluate(chunk));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          chunk.num_rows());
}
BENCHMARK(BM_ExprEvaluate);

void BM_ChunkSerde(benchmark::State& state) {
  auto chunk = BenchChunk(1 << 16);
  for (auto _ : state) {
    auto bytes = engine::SerializeChunk(chunk);
    benchmark::DoNotOptimize(
        engine::DeserializeChunk(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          chunk.memory_bytes());
}
BENCHMARK(BM_ChunkSerde);

void BM_FileWrite(benchmark::State& state) {
  auto chunk = BenchChunk(1 << 15);
  format::WriterOptions opts;
  opts.codec = compress::CodecId::kLz;
  for (auto _ : state) {
    benchmark::DoNotOptimize(format::FileWriter::WriteTable(chunk, opts));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          chunk.memory_bytes());
}
BENCHMARK(BM_FileWrite);

}  // namespace

BENCHMARK_MAIN();
