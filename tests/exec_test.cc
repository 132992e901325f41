#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/chunk_serde.h"
#include "engine/partition.h"
#include "exec/exec_context.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "format/encoding.h"

namespace lambada {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::TableChunk;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  const int kTasks = 1000;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) < kTasks) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, StressManySubmittersAndNestedTasks) {
  exec::ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  std::atomic<int> done{0};
  const int kOuter = 64;
  const int kInner = 32;
  // Several external submitter threads, each task spawning nested tasks
  // from inside the pool (exercises the local-deque push path and
  // stealing under contention).
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kOuter; ++i) {
        pool.Submit([&] {
          for (int j = 0; j < kInner; ++j) {
            pool.Submit([&] {
              sum.fetch_add(1, std::memory_order_relaxed);
              done.fetch_add(1, std::memory_order_release);
            });
          }
          done.fetch_add(1, std::memory_order_release);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  const int kTotal = 4 * kOuter * (1 + kInner);
  while (done.load(std::memory_order_acquire) < kTotal) {
    std::this_thread::yield();
  }
  EXPECT_EQ(sum.load(), 4 * kOuter * kInner);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  // The destructor joins after the queues drain.
  EXPECT_EQ(count.load(), 100);
}

// ---------------------------------------------------------------------------
// ParallelFor / ParallelReduce
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads, 64);
    std::vector<std::atomic<int>> hits(10007);
    exec::ParallelFor(ctx, 0, hits.size(), [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, MorselBoundariesIgnoreThreadCount) {
  auto boundaries = [](int threads) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads, 100);
    std::vector<std::pair<size_t, size_t>> morsels(
        exec::NumMorsels(ctx, 1234));
    exec::ParallelFor(ctx, 0, 1234, [&](size_t m, size_t b, size_t e) {
      morsels[m] = {b, e};
    });
    return morsels;
  };
  auto one = boundaries(1);
  EXPECT_EQ(one.size(), 13u);
  EXPECT_EQ(one.front(), (std::pair<size_t, size_t>{0, 100}));
  EXPECT_EQ(one.back(), (std::pair<size_t, size_t>{1200, 1234}));
  EXPECT_EQ(one, boundaries(2));
  EXPECT_EQ(one, boundaries(8));
}

TEST(ParallelReduceTest, FloatSumIsBitIdenticalAcrossThreadCounts) {
  Rng rng(17);
  std::vector<double> values(100000);
  for (auto& v : values) v = rng.NextDouble() * 1e6 - 5e5;
  auto sum_with = [&](int threads) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads, 1024);
    return exec::ParallelReduce<double>(
        ctx, 0, values.size(), 0.0,
        [&](size_t b, size_t e) {
          double s = 0;
          for (size_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  double serial = sum_with(1);
  // Exact bit equality: the morsel fold order is thread-count independent.
  EXPECT_EQ(serial, sum_with(2));
  EXPECT_EQ(serial, sum_with(8));
}

TEST(ParallelForTest, EmptyRangeAndSingleMorsel) {
  exec::ExecContext ctx = exec::ExecContext::Parallel(4, 1000);
  int calls = 0;
  exec::ParallelFor(ctx, 5, 5, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  exec::ParallelFor(ctx, 0, 10, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // A pool smaller than the caller fan-out, outer morsels of one element,
  // and a nested ParallelFor per element: without the helping wait in
  // RunMorsels, pool threads block on their inner helpers (which sit in
  // the blocked threads' own deques) and this hangs.
  exec::ThreadPool pool(2);
  exec::ExecContext ctx = exec::ExecContext::Parallel(4, 1);
  ctx.pool = &pool;
  const size_t kOuter = 64;
  const size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  exec::ParallelFor(ctx, 0, kOuter, [&](size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      exec::ParallelFor(ctx, 0, kInner, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) hits[o * kInner + i].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Kernel determinism across thread counts
// ---------------------------------------------------------------------------

TableChunk MakeChunk(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> keys(rows);
  std::vector<double> vals(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = rng.UniformInt(0, 1 << 20);
    vals[i] = rng.NextDouble();
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  return TableChunk(schema, {Column::Int64(std::move(keys)),
                             Column::Float64(std::move(vals))});
}

TEST(KernelDeterminismTest, PartitionIdenticalAcrossThreadCounts) {
  TableChunk chunk = MakeChunk(20000, 3);
  auto partition_with = [&](int threads) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads, 777);
    auto parts = engine::HashPartition(chunk, {0}, 13, ctx);
    EXPECT_TRUE(parts.ok());
    std::vector<std::vector<uint8_t>> blobs;
    for (const auto& p : *parts) blobs.push_back(engine::SerializeChunk(p));
    return blobs;
  };
  auto serial = partition_with(1);
  size_t total = 0;
  for (const auto& b : serial) total += b.size();
  EXPECT_GT(total, 20000u * 16);
  EXPECT_EQ(serial, partition_with(2));
  EXPECT_EQ(serial, partition_with(8));
}

TEST(KernelDeterminismTest, SerdeRoundTripsAndMatchesAcrossThreadCounts) {
  TableChunk chunk = MakeChunk(50000, 4);
  auto serial = engine::SerializeChunk(chunk);
  for (int threads : {2, 8}) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads, 999);
    EXPECT_EQ(serial, engine::SerializeChunk(chunk, ctx));
    auto back = engine::DeserializeChunk(serial.data(), serial.size(), ctx);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(engine::SerializeChunk(*back), serial);
  }
}

TEST(KernelDeterminismTest, CombinedSerdeMatchesAcrossThreadCounts) {
  std::vector<TableChunk> chunks;
  for (uint64_t i = 0; i < 9; ++i) chunks.push_back(MakeChunk(1000 + i, i));
  auto serial = engine::SerializeChunksCombined(chunks);
  for (int threads : {2, 8}) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads);
    auto parallel = engine::SerializeChunksCombined(chunks, ctx);
    EXPECT_EQ(serial.bytes, parallel.bytes);
    EXPECT_EQ(serial.offsets, parallel.offsets);
  }
}

TEST(KernelDeterminismTest, EncodeColumnAutoMatchesAcrossThreadCounts) {
  Rng rng(5);
  std::vector<int64_t> low_card(30000);
  for (auto& v : low_card) v = rng.UniformInt(0, 4);
  Column col = Column::Int64(std::move(low_card));
  auto serial = format::EncodeColumnAuto(col);
  for (int threads : {2, 8}) {
    exec::ExecContext ctx = exec::ExecContext::Parallel(threads);
    auto parallel = format::EncodeColumnAuto(col, ctx);
    EXPECT_EQ(serial.encoding, parallel.encoding);
    EXPECT_EQ(serial.bytes, parallel.bytes);
  }
}

}  // namespace
}  // namespace lambada
