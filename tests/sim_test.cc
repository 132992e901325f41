#include <gtest/gtest.h>

#include <vector>

#include "sim/async.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace lambada::sim {
namespace {

// ---------------------------------------------------------------------------
// Simulator event loop
// ---------------------------------------------------------------------------

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(1.0, [&, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CallbackCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.ScheduleAfter(1.0, tick);
  };
  sim.ScheduleAt(0.0, tick);
  sim.Run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 4.0);
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------------
// Coroutines
// ---------------------------------------------------------------------------

Async<int> ReturnAfter(Simulator* sim, double dt, int v) {
  co_await Sleep(sim, dt);
  co_return v;
}

TEST(AsyncTest, SleepAdvancesVirtualTime) {
  Simulator sim;
  double done_at = -1;
  Spawn([](Simulator* s, double* out) -> Async<void> {
    co_await Sleep(s, 1.5);
    *out = s->Now();
  }(&sim, &done_at));
  sim.Run();
  EXPECT_DOUBLE_EQ(done_at, 1.5);
}

TEST(AsyncTest, NestedAwaitPropagatesValue) {
  Simulator sim;
  int result = 0;
  Spawn([](Simulator* s, int* out) -> Async<void> {
    int a = co_await ReturnAfter(s, 1.0, 20);
    int b = co_await ReturnAfter(s, 2.0, 22);
    *out = a + b;
  }(&sim, &result));
  sim.Run();
  EXPECT_EQ(result, 42);
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(AsyncTest, WhenAllRunsConcurrently) {
  Simulator sim;
  double done_at = -1;
  Spawn([](Simulator* s, double* t) -> Async<void> {
    std::vector<Async<void>> tasks;
    for (double dt : {3.0, 1.0, 2.0}) {
      tasks.push_back([](Simulator* s2, double d) -> Async<void> {
        co_await Sleep(s2, d);
      }(s, dt));
    }
    co_await WhenAllVoid(s, std::move(tasks));
    *t = s->Now();
  }(&sim, &done_at));
  sim.Run();
  // Concurrent: total time is the max, not the sum.
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(AsyncTest, WhenAllVoidAndEmpty) {
  Simulator sim;
  bool done = false;
  Spawn([](Simulator* s, bool* out) -> Async<void> {
    co_await WhenAllVoid(s, {});
    std::vector<Async<void>> tasks;
    tasks.push_back([](Simulator* s2) -> Async<void> {
      co_await Sleep(s2, 1.0);
    }(s));
    co_await WhenAllVoid(s, std::move(tasks));
    *out = true;
  }(&sim, &done));
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
}

TEST(AsyncTest, EventWakesAllWaiters) {
  Simulator sim;
  Event ev(&sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    Spawn([](Event* e, int* n) -> Async<void> {
      co_await e->Wait();
      ++*n;
    }(&ev, &woken));
  }
  sim.ScheduleAt(2.0, [&] { ev.Set(); });
  sim.Run();
  EXPECT_EQ(woken, 3);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
}

TEST(AsyncTest, EventAlreadySetDoesNotBlock) {
  Simulator sim;
  Event ev(&sim);
  ev.Set();
  bool done = false;
  Spawn([](Event* e, bool* out) -> Async<void> {
    co_await e->Wait();
    *out = true;
  }(&ev, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(AsyncTest, SemaphoreBoundsConcurrency) {
  Simulator sim;
  Semaphore sem(&sim, 2);
  int active = 0, max_active = 0, completed = 0;
  for (int i = 0; i < 6; ++i) {
    Spawn([](Simulator* s, Semaphore* sm, int* a, int* m,
             int* c) -> Async<void> {
      co_await sm->Acquire();
      ++*a;
      if (*a > *m) *m = *a;
      co_await Sleep(s, 1.0);
      --*a;
      ++*c;
      sm->Release();
    }(&sim, &sem, &active, &max_active, &completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(max_active, 2);
  // 6 jobs of 1s with concurrency 2 => 3s.
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, BurstIsFree) {
  TokenBucket tb(/*rate=*/10.0, /*burst=*/5.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(tb.ReserveDelay(/*now=*/0.0), 0.0);
  }
  // Sixth request must wait 1/rate.
  EXPECT_NEAR(tb.ReserveDelay(0.0), 0.1, 1e-12);
}

TEST(TokenBucketTest, QueueBuildsUp) {
  TokenBucket tb(1.0, 1.0);
  EXPECT_DOUBLE_EQ(tb.ReserveDelay(0.0), 0.0);
  EXPECT_NEAR(tb.ReserveDelay(0.0), 1.0, 1e-12);
  EXPECT_NEAR(tb.ReserveDelay(0.0), 2.0, 1e-12);
}

TEST(TokenBucketTest, RefillsOverTime) {
  TokenBucket tb(2.0, 4.0);
  for (int i = 0; i < 4; ++i) tb.ReserveDelay(0.0);
  // After 1 second, 2 tokens refilled.
  EXPECT_DOUBLE_EQ(tb.ReserveDelay(1.0), 0.0);
  EXPECT_DOUBLE_EQ(tb.ReserveDelay(1.0), 0.0);
  EXPECT_NEAR(tb.ReserveDelay(1.0), 0.5, 1e-12);
}

TEST(TokenBucketTest, CurrentDelayDoesNotMutate) {
  TokenBucket tb(1.0, 1.0);
  tb.ReserveDelay(0.0);
  double d1 = tb.CurrentDelay(0.0);
  double d2 = tb.CurrentDelay(0.0);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_NEAR(d1, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// ProcessorSharing
// ---------------------------------------------------------------------------

TEST(ProcessorSharingTest, SingleJobRunsAtUnitRate) {
  Simulator sim;
  ProcessorSharing cpu(&sim, /*capacity=*/1.678);
  double done_at = -1;
  Spawn([](Simulator* s, ProcessorSharing* c, double* t) -> Async<void> {
    co_await c->Consume(2.0);  // 2 vCPU-seconds.
    *t = s->Now();
  }(&sim, &cpu, &done_at));
  sim.Run();
  // Per-job cap of 1 vCPU: 2 vCPU-s take 2 wall seconds.
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(ProcessorSharingTest, SmallFunctionIsProportionallySlower) {
  // 512 MiB worker: capacity = 512/1792 = 0.2857 vCPU.
  Simulator sim;
  ProcessorSharing cpu(&sim, 512.0 / 1792.0);
  double done_at = -1;
  Spawn([](Simulator* s, ProcessorSharing* c, double* t) -> Async<void> {
    co_await c->Consume(1.0);
    *t = s->Now();
  }(&sim, &cpu, &done_at));
  sim.Run();
  EXPECT_NEAR(done_at, 1792.0 / 512.0, 1e-9);
}

TEST(ProcessorSharingTest, TwoThreadsShareLargeFunction) {
  // 3008 MiB worker: capacity 1.678; two 1-vCPU-s jobs should finish
  // together at 2/1.678 s (each running at 0.839).
  Simulator sim;
  ProcessorSharing cpu(&sim, 3008.0 / 1792.0);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    Spawn([](Simulator* s, ProcessorSharing* c,
             std::vector<double>* d) -> Async<void> {
      co_await c->Consume(1.0);
      d->push_back(s->Now());
    }(&sim, &cpu, &done));
  }
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0 / (3008.0 / 1792.0), 1e-9);
  EXPECT_NEAR(done[1], done[0], 1e-9);
}

TEST(ProcessorSharingTest, TwoThreadsOnOneCpuNoSpeedup) {
  Simulator sim;
  ProcessorSharing cpu(&sim, 1.0);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    Spawn([](Simulator* s, ProcessorSharing* c,
             std::vector<double>* d) -> Async<void> {
      co_await c->Consume(1.0);
      d->push_back(s->Now());
    }(&sim, &cpu, &done));
  }
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  // 2 vCPU-s of total work on 1 vCPU: 2 seconds.
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(ProcessorSharingTest, StaggeredArrivalsShareFairly) {
  Simulator sim;
  ProcessorSharing cpu(&sim, 1.0);
  std::vector<double> done(2, -1);
  Spawn([](Simulator* s, ProcessorSharing* c, double* t) -> Async<void> {
    co_await c->Consume(2.0);
    *t = s->Now();
  }(&sim, &cpu, &done[0]));
  Spawn([](Simulator* s, ProcessorSharing* c, double* t) -> Async<void> {
    co_await Sleep(s, 1.0);
    co_await c->Consume(1.0);
    *t = s->Now();
  }(&sim, &cpu, &done[1]));
  sim.Run();
  // Job A: 1s alone (1 vCPU-s done), then shares 0.5 each. A has 1
  // remaining => 2 more seconds => done at 3. B has 1 => done at 3.
  EXPECT_NEAR(done[0], 3.0, 1e-9);
  EXPECT_NEAR(done[1], 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// SharedLink
// ---------------------------------------------------------------------------

constexpr double kMiBd = 1024.0 * 1024.0;

SharedLink::Config LinkConfig(double sustained_mib, double peak_mib,
                              double credit_mib, double per_conn_mib) {
  return SharedLink::Config{sustained_mib * kMiBd, peak_mib * kMiBd,
                            credit_mib * kMiBd, per_conn_mib * kMiBd};
}

TEST(SharedLinkTest, LargeTransferRunsAtSustainedRate) {
  Simulator sim;
  // 90 MiB/s sustained, 300 peak, 400 MiB credits, 90 per connection.
  SharedLink link(&sim, LinkConfig(90, 300, 400, 90));
  double done_at = -1;
  Spawn([](Simulator* s, SharedLink* l, double* t) -> Async<void> {
    co_await l->Transfer(900 * kMiBd);
    *t = s->Now();
  }(&sim, &link, &done_at));
  sim.Run();
  // One connection capped at 90 MiB/s: 900 MiB takes 10 s exactly
  // (credits never bind because demand == sustained).
  EXPECT_NEAR(done_at, 10.0, 1e-6);
}

TEST(SharedLinkTest, FourConnectionsBurstThenThrottle) {
  Simulator sim;
  SharedLink link(&sim, LinkConfig(90, 300, 420, 90));
  double done_at = -1;
  Spawn([](Simulator* s, SharedLink* l, double* t) -> Async<void> {
    std::vector<Async<void>> tasks;
    for (int i = 0; i < 4; ++i) {
      tasks.push_back(l->Transfer(150 * kMiBd));
    }
    co_await WhenAllVoid(s, std::move(tasks));
    *t = s->Now();
  }(&sim, &link, &done_at));
  sim.Run();
  // Aggregate demand 4*90=360 capped at peak 300. Credits drain at
  // 300-90=210 MiB/s; 420 MiB of credits last 2 s, delivering 600 MiB.
  // At t=2, each transfer has exactly 150 done. So exactly 2 s.
  EXPECT_NEAR(done_at, 2.0, 1e-6);
}

TEST(SharedLinkTest, AfterCreditsThroughputDropsToSustained) {
  Simulator sim;
  SharedLink link(&sim, LinkConfig(90, 300, 210, 90));
  double done_at = -1;
  Spawn([](Simulator* s, SharedLink* l, double* t) -> Async<void> {
    std::vector<Async<void>> tasks;
    for (int i = 0; i < 4; ++i) {
      tasks.push_back(l->Transfer(120 * kMiBd));
    }
    co_await WhenAllVoid(s, std::move(tasks));
    *t = s->Now();
  }(&sim, &link, &done_at));
  sim.Run();
  // Credits 210 MiB at drain 210 MiB/s => 1 s of burst at 300 => 300 MiB
  // delivered (75 each). Remaining 180 MiB at 90 MiB/s => 2 s more.
  EXPECT_NEAR(done_at, 3.0, 1e-6);
}

TEST(SharedLinkTest, CreditsRefillWhenIdle) {
  Simulator sim;
  SharedLink link(&sim, LinkConfig(90, 300, 210, 90));
  std::vector<double> durations;
  Spawn([](Simulator* s, SharedLink* l,
           std::vector<double>* out) -> Async<void> {
    // Burst 1: 4 connections, 300 MiB total at 300 MiB/s => 1 s.
    auto run_burst = [&]() -> Async<void> {
      std::vector<Async<void>> tasks;
      for (int i = 0; i < 4; ++i) tasks.push_back(l->Transfer(75 * kMiBd));
      co_await WhenAllVoid(s, std::move(tasks));
    };
    double t0 = s->Now();
    co_await run_burst();
    out->push_back(s->Now() - t0);
    // Idle long enough for a full credit refill (210 MiB at 90 MiB/s).
    co_await Sleep(s, 3.0);
    t0 = s->Now();
    co_await run_burst();
    out->push_back(s->Now() - t0);
  }(&sim, &link, &durations));
  sim.Run();
  ASSERT_EQ(durations.size(), 2u);
  EXPECT_NEAR(durations[0], 1.0, 1e-6);
  EXPECT_NEAR(durations[1], 1.0, 1e-6);
}

TEST(SharedLinkTest, PerConnectionCapLimitsSingleStream) {
  Simulator sim;
  SharedLink link(&sim, LinkConfig(90, 300, 1000, 90));
  double done_at = -1;
  Spawn([](Simulator* s, SharedLink* l, double* t) -> Async<void> {
    co_await l->Transfer(90 * kMiBd);
    *t = s->Now();
  }(&sim, &link, &done_at));
  sim.Run();
  // Even with credits available, one connection gets at most 90 MiB/s.
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

}  // namespace
}  // namespace lambada::sim
