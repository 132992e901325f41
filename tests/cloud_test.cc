#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "common/units.h"

namespace lambada::cloud {
namespace {

using sim::Async;
using sim::Spawn;

/// Runs a driver coroutine on a fresh cloud and returns after the
/// simulation drains.
template <typename Fn>
void RunOnCloud(Cloud& cloud, Fn body) {
  Spawn(body(&cloud));
  cloud.sim().Run();
}

// ---------------------------------------------------------------------------
// ObjectStore
// ---------------------------------------------------------------------------

TEST(ObjectStoreTest, PutGetRoundTrip) {
  Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  Status put_status = Status::Internal("unset");
  std::string got;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    put_status = co_await c->s3().Put(c->driver_net(), "b", "k",
                                      Buffer::FromString("payload"));
    auto r = co_await c->s3().Get(c->driver_net(), "b", "k");
    if (r.ok()) got = (*r)->ToString();
  });
  EXPECT_TRUE(put_status.ok());
  EXPECT_EQ(got, "payload");
  EXPECT_EQ(cloud.ledger().totals().s3_put_requests, 1);
  EXPECT_EQ(cloud.ledger().totals().s3_get_requests, 1);
}

TEST(ObjectStoreTest, RangeGetClampsLikeHttp) {
  Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  ASSERT_TRUE(
      cloud.s3().PutDirect("b", "k", Buffer::FromString("0123456789")).ok());
  std::string got_mid, got_tail;
  Status oob = Status::OK();
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    auto r1 = co_await c->s3().Get(c->driver_net(), "b", "k", 2, 3);
    got_mid = (*r1)->ToString();
    auto r2 = co_await c->s3().Get(c->driver_net(), "b", "k", 8, 100);
    got_tail = (*r2)->ToString();
    auto r3 = co_await c->s3().Get(c->driver_net(), "b", "k", 20, 1);
    oob = r3.status();
  });
  EXPECT_EQ(got_mid, "234");
  EXPECT_EQ(got_tail, "89");
  EXPECT_EQ(oob.code(), StatusCode::kOutOfRange);
}

TEST(ObjectStoreTest, MissingKeyIsNotFoundAndBilled) {
  Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  Status s = Status::OK();
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    auto r = co_await c->s3().Get(c->driver_net(), "b", "nope");
    s = r.status();
  });
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(cloud.ledger().totals().s3_get_requests, 1);
}

TEST(ObjectStoreTest, VirtualScaleInflatesTransferTimeAndBytes) {
  Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  // 1 MiB real data scaled 100x => 100 MiB modeled.
  std::vector<uint8_t> data(1 * kMiB, 7);
  ASSERT_TRUE(cloud.s3()
                  .PutDirect("b", "big", Buffer::FromVector(std::move(data)),
                             /*scale=*/100.0)
                  .ok());
  EXPECT_EQ(*cloud.s3().VirtualSize("b", "big"), 100 * kMiB);
  double elapsed = 0;
  size_t real_size = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    double t0 = c->sim().Now();
    auto r = co_await c->s3().Get(c->driver_net(), "b", "big");
    elapsed = c->sim().Now() - t0;
    real_size = (*r)->size();
  });
  EXPECT_EQ(real_size, static_cast<size_t>(1 * kMiB));
  EXPECT_EQ(cloud.ledger().totals().s3_bytes_read, 100 * kMiB);
  // Driver link is ~1000 MiB/s: 100 MiB takes ~0.1 s plus small latency.
  EXPECT_GT(elapsed, 0.09);
  EXPECT_LT(elapsed, 0.5);
}

TEST(ObjectStoreTest, RateLimitTriggersSlowDown) {
  CloudConfig cfg;
  cfg.s3.read_rate_per_bucket = 10.0;
  cfg.s3.rate_burst = 5.0;
  cfg.s3.slowdown_queue_threshold_s = 0.2;
  Cloud cloud(cfg);
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  ASSERT_TRUE(cloud.s3().PutDirect("b", "k", Buffer::FromString("x")).ok());
  int slowdowns = 0, oks = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    std::vector<Async<void>> gets;
    for (int i = 0; i < 50; ++i) {
      gets.push_back([](Cloud* cl, int* sd, int* ok) -> Async<void> {
        auto r = co_await cl->s3().Get(cl->driver_net(), "b", "k");
        if (r.ok()) {
          ++*ok;
        } else if (r.status().IsResourceExhausted()) {
          ++*sd;
        }
      }(c, &slowdowns, &oks));
    }
    co_await sim::WhenAllVoid(&c->sim(), std::move(gets));
  });
  EXPECT_GT(slowdowns, 0);
  EXPECT_GT(oks, 0);
  EXPECT_EQ(slowdowns + oks, 50);
}

TEST(ObjectStoreTest, S3ClientRetriesThroughSlowDown) {
  CloudConfig cfg;
  cfg.s3.read_rate_per_bucket = 50.0;
  cfg.s3.rate_burst = 5.0;
  cfg.s3.slowdown_queue_threshold_s = 0.05;
  Cloud cloud(cfg);
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  ASSERT_TRUE(cloud.s3().PutDirect("b", "k", Buffer::FromString("x")).ok());
  int failures = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    std::vector<Async<void>> gets;
    for (int i = 0; i < 40; ++i) {
      gets.push_back([](Cloud* cl, int* fail) -> Async<void> {
        S3Client client(&cl->s3(), cl->driver_net());
        auto r = co_await client.Get("b", "k");
        if (!r.ok()) ++*fail;
      }(c, &failures));
    }
    co_await sim::WhenAllVoid(&c->sim(), std::move(gets));
  });
  EXPECT_EQ(failures, 0);
}

TEST(ObjectStoreTest, ListReturnsPrefixedKeysSorted) {
  Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  for (const char* k : {"x/2", "x/1", "y/1", "x/3"}) {
    ASSERT_TRUE(cloud.s3().PutDirect("b", k, Buffer::FromString("d")).ok());
  }
  std::vector<std::string> keys;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    auto r = co_await c->s3().List(c->driver_net(), "b", "x/");
    for (const auto& o : *r) keys.push_back(o.key);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"x/1", "x/2", "x/3"}));
  EXPECT_EQ(cloud.ledger().totals().s3_list_requests, 1);
}

TEST(ObjectStoreTest, OversizedKeyRejected) {
  Cloud cloud;
  ASSERT_TRUE(cloud.s3().CreateBucket("b").ok());
  Status s = Status::OK();
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    std::string key(2000, 'k');
    s = co_await c->s3().Put(c->driver_net(), "b", key,
                             Buffer::FromString("x"));
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// QueueService
// ---------------------------------------------------------------------------

TEST(QueueServiceTest, SendReceiveFifo) {
  Cloud cloud;
  ASSERT_TRUE(cloud.sqs().CreateQueue("q").ok());
  std::vector<std::string> got;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->sqs().Send(c->driver_net(), "q", "m1");
    co_await c->sqs().Send(c->driver_net(), "q", "m2");
    auto r = co_await c->sqs().Receive(c->driver_net(), "q", 10, 1.0);
    got = *r;
  });
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2"}));
}

TEST(QueueServiceTest, LongPollWaitsForMessage) {
  Cloud cloud;
  ASSERT_TRUE(cloud.sqs().CreateQueue("q").ok());
  std::vector<std::string> got;
  double received_at = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    Spawn([](Cloud* cl) -> Async<void> {
      co_await sim::Sleep(&cl->sim(), 0.5);
      co_await cl->sqs().Send(cl->driver_net(), "q", "late");
    }(c));
    auto r = co_await c->sqs().Receive(c->driver_net(), "q", 10, 5.0);
    got = *r;
    received_at = c->sim().Now();
  });
  EXPECT_EQ(got, (std::vector<std::string>{"late"}));
  EXPECT_GE(received_at, 0.5);
  EXPECT_LT(received_at, 1.0);
}

TEST(QueueServiceTest, ReceiveTimesOutEmpty) {
  Cloud cloud;
  ASSERT_TRUE(cloud.sqs().CreateQueue("q").ok());
  bool empty = false;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    auto r = co_await c->sqs().Receive(c->driver_net(), "q", 10, 0.5);
    empty = r->empty();
  });
  EXPECT_TRUE(empty);
  EXPECT_GE(cloud.sim().Now(), 0.5);
}

TEST(QueueServiceTest, BatchLimitIsTen) {
  Cloud cloud;
  ASSERT_TRUE(cloud.sqs().CreateQueue("q").ok());
  size_t first_batch = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    for (int i = 0; i < 15; ++i) {
      co_await c->sqs().Send(c->driver_net(), "q", "m");
    }
    auto r = co_await c->sqs().Receive(c->driver_net(), "q", 100, 0.1);
    first_batch = r->size();
  });
  EXPECT_EQ(first_batch, 10u);
  EXPECT_EQ(cloud.sqs().DepthDirect("q"), 5u);
}

TEST(QueueServiceTest, OversizedMessageRejected) {
  Cloud cloud;
  ASSERT_TRUE(cloud.sqs().CreateQueue("q").ok());
  Status s = Status::OK();
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    s = co_await c->sqs().Send(c->driver_net(), "q",
                               std::string(300 * 1024, 'x'));
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// KeyValueStore
// ---------------------------------------------------------------------------

TEST(KeyValueStoreTest, PutGetBillsEveryRequest) {
  Cloud cloud;
  ASSERT_TRUE(cloud.ddb().CreateTable("t").ok());
  std::string got;
  Status missing = Status::OK();
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->ddb().Put(c->driver_net(), "t", "k", "v1");
    auto r = co_await c->ddb().Get(c->driver_net(), "t", "k");
    got = *r;
    auto r2 = co_await c->ddb().Get(c->driver_net(), "t", "absent");
    missing = r2.status();
  });
  EXPECT_EQ(got, "v1");
  EXPECT_TRUE(missing.IsNotFound());
  EXPECT_EQ(cloud.ledger().totals().ddb_writes, 1);
  EXPECT_EQ(cloud.ledger().totals().ddb_reads, 2);
}

// ---------------------------------------------------------------------------
// FaasService
// ---------------------------------------------------------------------------

FunctionConfig EchoFunction(std::vector<std::string>* sink,
                            int memory_mib = 2048) {
  FunctionConfig cfg;
  cfg.name = "echo";
  cfg.memory_mib = memory_mib;
  cfg.handler = [sink](WorkerEnv& env, std::string payload) -> Async<Status> {
    co_await env.Compute(0.1);
    sink->push_back(payload);
    co_return Status::OK();
  };
  return cfg;
}

TEST(FaasTest, InvokeRunsHandler) {
  Cloud cloud;
  std::vector<std::string> sink;
  ASSERT_TRUE(cloud.faas().CreateFunction(EchoFunction(&sink)).ok());
  Status s = Status::Internal("unset");
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    s = co_await c->faas().Invoke(c->driver_invoker_profile(),
                                  &c->driver_rng(), "echo", "hello");
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(sink, (std::vector<std::string>{"hello"}));
  EXPECT_EQ(cloud.ledger().totals().lambda_invocations, 1);
  EXPECT_GT(cloud.ledger().totals().lambda_gib_seconds, 0.0);
}

TEST(FaasTest, SecondInvocationIsWarmAndFaster) {
  Cloud cloud;
  std::vector<std::string> sink;
  ASSERT_TRUE(cloud.faas().CreateFunction(EchoFunction(&sink)).ok());
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "echo", "a");
    co_await sim::Sleep(&c->sim(), 5.0);  // Let the first one finish.
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "echo", "b");
  });
  const auto& metrics = cloud.faas().completed_metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_TRUE(metrics[0].cold_start);
  EXPECT_FALSE(metrics[1].cold_start);
  double cold_duration = metrics[0].handler_end - metrics[0].handler_start;
  double warm_duration = metrics[1].handler_end - metrics[1].handler_start;
  EXPECT_GT(cold_duration, warm_duration);
}

TEST(FaasTest, ConcurrencyLimitThrottles) {
  CloudConfig cfg;
  cfg.concurrency_limit = 3;
  Cloud cloud(cfg);
  FunctionConfig fn;
  fn.name = "slow";
  fn.memory_mib = 1792;
  fn.handler = [](WorkerEnv& env, std::string) -> Async<Status> {
    co_await sim::Sleep(env.sim(), 10.0);
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
  int ok = 0, throttled = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    for (int i = 0; i < 5; ++i) {
      Status s = co_await c->faas().Invoke(c->driver_invoker_profile(),
                                           &c->driver_rng(), "slow", "");
      if (s.ok()) {
        ++ok;
      } else if (s.IsResourceExhausted()) {
        ++throttled;
      }
    }
  });
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(throttled, 2);
}

TEST(FaasTest, BillingRoundsUpTo100msAndScalesWithMemory) {
  CloudConfig cfg;
  cfg.faas.cold_init_cpu_s = 0;  // Isolate the billing arithmetic.
  Cloud cloud(cfg);
  FunctionConfig fn;
  fn.name = "f";
  fn.memory_mib = 1024;  // 1 GiB => GiB-s == seconds billed.
  fn.handler = [](WorkerEnv& env, std::string) -> Async<Status> {
    co_await sim::Sleep(env.sim(), 0.25);  // Bills as 0.3 s.
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "f", "");
  });
  EXPECT_NEAR(cloud.ledger().totals().lambda_gib_seconds, 0.3, 1e-9);
}

TEST(FaasTest, HandlerErrorIsCountedNotFatal) {
  Cloud cloud;
  FunctionConfig fn;
  fn.name = "f";
  fn.memory_mib = 1792;
  fn.handler = [](WorkerEnv&, std::string) -> Async<Status> {
    co_return Status::OutOfMemory("boom");
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "f", "");
  });
  EXPECT_EQ(cloud.faas().failed_handlers(), 1);
}

TEST(FaasTest, OversizedPayloadRejected) {
  Cloud cloud;
  std::vector<std::string> sink;
  ASSERT_TRUE(cloud.faas().CreateFunction(EchoFunction(&sink)).ok());
  Status s = Status::OK();
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    s = co_await c->faas().Invoke(c->driver_invoker_profile(),
                                  &c->driver_rng(), "echo",
                                  std::string(300 * 1024, 'x'));
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FaasTest, WorkerEnvMemoryAccounting) {
  Cloud cloud;
  FunctionConfig fn;
  fn.name = "f";
  fn.memory_mib = 512;
  Status reserve_big = Status::OK();
  fn.handler = [&](WorkerEnv& env, std::string) -> Async<Status> {
    // 512 MiB function: budget is below 512 MiB but well above 256.
    LAMBADA_CHECK_OK(env.ReserveMemory(256 * kMiB));
    reserve_big = env.ReserveMemory(256 * kMiB);
    env.ReleaseMemory(256 * kMiB);
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "f", "");
  });
  EXPECT_EQ(reserve_big.code(), StatusCode::kOutOfMemory);
}

TEST(FaasTest, CpuShareMatchesFigure4Model) {
  // A 1-vCPU-second job on a 512 MiB worker takes 1792/512 = 3.5 s;
  // on a 1792 MiB worker it takes 1 s.
  for (auto [mem, expected] : std::vector<std::pair<int, double>>{
           {512, 3.5}, {1792, 1.0}, {3008, 1.0}}) {
    Cloud cloud;
    FunctionConfig fn;
    fn.name = "f";
    fn.memory_mib = mem;
    double duration = -1;
    fn.handler = [&duration](WorkerEnv& env, std::string) -> Async<Status> {
      double t0 = env.sim()->Now();
      co_await env.Compute(1.0);
      duration = env.sim()->Now() - t0;
      co_return Status::OK();
    };
    ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
    RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "f", "");
    });
    EXPECT_NEAR(duration, expected, 1e-6) << "memory " << mem;
  }
}

TEST(FaasTest, DriverInvocationRateMatchesTable1) {
  // 128 concurrent invocation threads from the driver should achieve
  // roughly the region's client rate (Table 1: eu = 294/s).
  Cloud cloud;
  std::vector<std::string> sink;
  ASSERT_TRUE(cloud.faas().CreateFunction(EchoFunction(&sink)).ok());
  cloud.faas().set_concurrency_limit(4000);
  const int kInvocations = 512;
  double elapsed = 0;
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    double t0 = c->sim().Now();
    auto sem = std::make_shared<sim::Semaphore>(&c->sim(), 128);
    std::vector<Async<void>> calls;
    for (int i = 0; i < kInvocations; ++i) {
      calls.push_back([](Cloud* cl,
                         std::shared_ptr<sim::Semaphore> s) -> Async<void> {
        co_await s->Acquire();
        co_await cl->faas().Invoke(cl->driver_invoker_profile(),
                                   &cl->driver_rng(), "echo", "x");
        s->Release();
      }(c, sem));
    }
    co_await sim::WhenAllVoid(&c->sim(), std::move(calls));
    elapsed = c->sim().Now() - t0;
  });
  double rate = kInvocations / elapsed;
  EXPECT_GT(rate, 250.0);
  EXPECT_LT(rate, 370.0);  // Client-bucket burst inflates short runs.
}

TEST(FaasTest, IntraRegionSequentialRateMatchesTable1) {
  // A worker invoking sequentially achieves ~81/s (Table 1).
  Cloud cloud;
  cloud.faas().set_concurrency_limit(4000);
  std::vector<std::string> sink;
  ASSERT_TRUE(cloud.faas().CreateFunction(EchoFunction(&sink)).ok());
  FunctionConfig parent;
  parent.name = "parent";
  parent.memory_mib = 2048;
  double rate = 0;
  parent.handler = [&rate](WorkerEnv& env, std::string) -> Async<Status> {
    double t0 = env.sim()->Now();
    for (int i = 0; i < 100; ++i) {
      co_await env.services().faas->Invoke(env.invoker_profile(), &env.rng(),
                                           "echo", "x");
    }
    rate = 100 / (env.sim()->Now() - t0);
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(parent).ok());
  RunOnCloud(cloud, [&](Cloud* c) -> Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "parent", "");
  });
  EXPECT_GT(rate, 70.0);
  EXPECT_LT(rate, 95.0);
}

}  // namespace
}  // namespace lambada::cloud
