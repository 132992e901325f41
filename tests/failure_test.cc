#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "cloud/cloud.h"
#include "cloud/scan_share.h"
#include "core/driver.h"
#include "core/exchange.h"
#include "core/messages.h"
#include "core/session_manager.h"
#include "engine/chunk_serde.h"
#include "engine/expr.h"
#include "format/writer.h"
#include "obs/trace.h"
#include "workload/tpch.h"

namespace lambada::core {
namespace {

using engine::Col;
using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Lit;
using engine::Schema;
using engine::TableChunk;

/// Uploads `files` copies of a (k, v) table with `rows` rows each.
void UploadTable(cloud::Cloud& cloud, const std::string& prefix, int files,
                 int rows) {
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("data"));
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  Rng rng(8);
  for (int f = 0; f < files; ++f) {
    std::vector<int64_t> k;
    std::vector<double> v;
    for (int i = 0; i < rows; ++i) {
      k.push_back(rng.UniformInt(0, 99));
      v.push_back(rng.NextDouble());
    }
    TableChunk t(schema, {Column::Int64(std::move(k)),
                          Column::Float64(std::move(v))});
    format::WriterOptions wo;
    wo.codec = compress::CodecId::kNone;  // Keep chunks big in memory.
    auto file = format::FileWriter::WriteTable(t, wo);
    LAMBADA_CHECK_OK(file);
    char name[64];
    std::snprintf(name, sizeof(name), "%spart-%05d.lpq", prefix.c_str(), f);
    LAMBADA_CHECK_OK(cloud.s3().PutDirect(
        "data", name, Buffer::FromVector(*std::move(file))));
  }
}

TEST(FailureTest, WorkerOutOfMemoryIsReportedNotSilent) {
  // A 128 MiB worker has a ~32 MiB engine budget; make it collect a chunk
  // larger than that: rows land in `collected` without an aggregate.
  cloud::Cloud cloud;
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  UploadTable(cloud, "big/", 1, 2'500'000);  // ~40 MB of row data.
  // No filter: projection push-down must not shrink the scan below the
  // budget (a select-* collect reads both columns).
  auto q = Query::FromParquet("s3://data/big/*.lpq");
  RunOptions opts;
  opts.memory_mib = 128;
  auto report = driver.RunToCompletion(q, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kOutOfMemory);
  EXPECT_NE(report.status().message().find("worker"), std::string::npos);
}

TEST(FailureTest, LargeResultsSpillToS3) {
  // Collect ~3 MB of rows: far beyond the 256 KiB SQS limit, so the
  // worker must spill to S3 and the driver must fetch the spill.
  cloud::Cloud cloud;
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  UploadTable(cloud, "spill/", 2, 100'000);
  auto q = Query::FromParquet("s3://data/spill/*.lpq");
  auto report = driver.RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result.num_rows(), 200'000u);
  int spilled = 0;
  for (const auto& r : report->worker_results) {
    if (!r.spill_bucket.empty()) ++spilled;
    EXPECT_TRUE(r.inline_result.empty() || r.spill_bucket.empty());
  }
  EXPECT_EQ(spilled, 2);
}

TEST(FailureTest, DriverRetriesThroughConcurrencyThrottling) {
  // 16 workers against a concurrency limit of 4: invocations get
  // throttled (429) and must succeed via retry as slots free up.
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = 4;
  cloud::Cloud cloud(cfg);
  DriverOptions dopts;
  dopts.invocation_tree_depth = 1;  // All 16 invokes from the driver.
  Driver driver(&cloud, dopts);
  ASSERT_TRUE(driver.Install().ok());
  UploadTable(cloud, "throttle/", 16, 2000);
  auto q = Query::FromParquet("s3://data/throttle/*.lpq").ReduceCount();
  auto report = driver.RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result.column(0).i64()[0], 16 * 2000);
  EXPECT_EQ(report->workers, 16);
}

TEST(FailureTest, OversizedPayloadFailsCleanly) {
  // One worker assigned thousands of files: the payload exceeds the
  // 256 KB async-invocation limit and the driver reports the error
  // instead of hanging.
  cloud::Cloud cloud;
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("data"));
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::kInt64}});
  TableChunk t(schema, {Column::Int64({1})});
  auto file = format::FileWriter::WriteTable(t, format::WriterOptions{});
  ASSERT_TRUE(file.ok());
  auto blob = Buffer::FromVector(*std::move(file));
  for (int f = 0; f < 12000; ++f) {
    char name[64];
    std::snprintf(name, sizeof(name), "many/%08d.lpq", f);
    ASSERT_TRUE(cloud.s3().PutDirect("data", name, blob).ok());
  }
  auto q = Query::FromParquet("s3://data/many/*.lpq").ReduceCount();
  RunOptions opts;
  opts.num_workers = 1;  // All 12000 file refs into one payload.
  auto report = driver.RunToCompletion(q, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(FailureTest, ExchangeSurvivesRateLimitThrottling) {
  // A single-bucket, single-level exchange under tight per-bucket rate
  // limits: SlowDown responses are retried and the shuffle still
  // completes correctly (this is the pain that motivates multiple
  // buckets). At 50 reads/s some slices stay throttled past S3Client's
  // own retries, so the exchange's slice retry has to carry them.
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = 64;
  cfg.s3.read_rate_per_bucket = 50;
  cfg.s3.write_rate_per_bucket = 100;
  cfg.s3.rate_burst = 20;
  cfg.s3.slowdown_queue_threshold_s = 0.2;
  cloud::Cloud cloud(cfg);
  ExchangeSpec spec;
  spec.keys = {"k"};
  spec.levels = 1;
  spec.num_buckets = 1;
  spec.exchange_id = "throttled";
  ASSERT_TRUE(CreateExchangeBuckets(&cloud.s3(), spec).ok());
  const int P = 36;
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", DataType::kInt64}});
  int64_t received = 0;
  int64_t retries = 0;
  int failures = 0;
  cloud::FunctionConfig fn;
  fn.name = "xw";
  fn.memory_mib = 2048;
  fn.handler = [&, schema](cloud::WorkerEnv& env,
                           std::string payload) -> sim::Async<Status> {
    int p = std::stoi(payload);
    std::vector<int64_t> keys;
    for (int i = 0; i < 200; ++i) {
      keys.push_back(static_cast<int64_t>(p) * 200 + i);
    }
    TableChunk input(schema, {Column::Int64(std::move(keys))});
    auto out = co_await RunExchange(env, spec, p, P, std::move(input));
    retries += env.registry().counter(obs::Metric::kS3Retries);
    if (!out.ok()) {
      ++failures;
      co_return out.status();
    }
    received += static_cast<int64_t>(out->num_rows());
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
  for (int p = 0; p < P; ++p) {
    sim::Spawn([](cloud::Cloud* c, int worker) -> sim::Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "xw",
                                std::to_string(worker));
    }(&cloud, p));
  }
  cloud.sim().Run();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(received, P * 200);
  EXPECT_GT(retries, 0);  // The limits did throttle.
}

TEST(FailureTest, QueryDeadlineNamesMissingWorkers) {
  // Every worker is fated to crash silently (no result message). Without
  // mitigation the driver waits until its deadline and must fail with a
  // clean DeadlineExceeded naming the workers it never heard from.
  cloud::CloudConfig cfg;
  cfg.fault.enabled = true;
  cfg.fault.worker_crash_rate = 1.0;
  cloud::Cloud cloud(cfg);
  DriverOptions dopts;
  dopts.query_timeout_s = 60.0;
  Driver driver(&cloud, dopts);
  ASSERT_TRUE(driver.Install().ok());
  UploadTable(cloud, "dead/", 4, 1000);
  auto q = Query::FromParquet("s3://data/dead/*.lpq").ReduceCount();
  auto report = driver.RunToCompletion(q, RunOptions{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(report.status().message().find("missing workers"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_NE(report.status().message().find("0/4"), std::string::npos)
      << report.status().ToString();
  EXPECT_GE(cloud.fault().crashes_armed(), 4);
}

TEST(FailureTest, DuplicateResultDeliveryIsDedupedNotDoubleMerged) {
  // SQS is at-least-once: the same ResultMessage (same worker, same
  // attempt) can arrive twice. Collection is first-result-wins per worker
  // id, so the duplicate must be counted and dropped, never merged twice.
  cloud::Cloud cloud;
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  UploadTable(cloud, "dup/", 2, 500);

  // Forge worker 0's partial for the driver's first query ("q0") and send
  // it twice before the fleet starts: both copies beat the real workers to
  // the queue, so the first is taken and the second is a pure duplicate.
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  TableChunk forged(schema, {Column::Int64({1, 2, 3}),
                             Column::Float64({0.5, 0.25, 0.125})});
  ResultMessage msg;
  msg.query_id = "q0";
  msg.worker_id = 0;
  msg.attempt = 0;
  msg.inline_result = engine::SerializeChunk(forged);
  std::string body = msg.Serialize();
  for (int copy = 0; copy < 2; ++copy) {
    sim::Spawn([](cloud::Cloud* c, std::string b) -> sim::Async<void> {
      co_await c->sqs().Send(c->driver_net(), "lambada-results",
                             std::move(b));
    }(&cloud, body));
  }

  auto q = Query::FromParquet("s3://data/dup/*.lpq");
  auto report = driver.RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Worker 0's slot was satisfied by the first forged copy; the second
  // copy and the real worker-0 message are both dropped as duplicates.
  EXPECT_EQ(report->duplicate_results, 2);
  EXPECT_EQ(report->result.num_rows(), 3u + 500u);
  EXPECT_EQ(report->total_attempts, 2);
}

TEST(FailureTest, InjectedS3ErrorsAreRetriedAndCounted) {
  // A tenth of S3 GETs fail with injected 500s/SlowDowns: the shared
  // client retry (bounded exponential backoff + seeded jitter) must absorb
  // them all, and the attempts must surface in the report telemetry.
  auto count_with = [](const cloud::FaultPlan& fault,
                       int64_t* retries) -> int64_t {
    cloud::CloudConfig cfg;
    cfg.fault = fault;
    cloud::Cloud cloud(cfg);
    Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    UploadTable(cloud, "retry/", 8, 2000);
    auto q = Query::FromParquet("s3://data/retry/*.lpq").ReduceCount();
    auto report = driver.RunToCompletion(q, RunOptions{});
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    *retries = report->worker_s3_retries;
    return report->result.column(0).i64()[0];
  };
  int64_t clean_retries = 0;
  int64_t clean = count_with(cloud::FaultPlan{}, &clean_retries);
  EXPECT_EQ(clean, 8 * 2000);
  EXPECT_EQ(clean_retries, 0);

  cloud::FaultPlan flaky;
  flaky.enabled = true;
  flaky.s3_get_error_rate = 0.05;
  flaky.s3_slowdown_rate = 0.05;
  int64_t faulted_retries = 0;
  int64_t faulted = count_with(flaky, &faulted_retries);
  EXPECT_EQ(faulted, clean);
  EXPECT_GT(faulted_retries, 0);
}

TEST(FailureTest, HedgedGetsDuplicateSlowRequests) {
  // With hedging on, a GET that outlives the observed latency quantile is
  // duplicated and the first response wins. Over many requests some draws
  // land in the tail, so hedges must fire; every GET still succeeds.
  cloud::Cloud cloud;
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("h"));
  LAMBADA_CHECK_OK(cloud.s3().PutDirect(
      "h", "obj", Buffer::FromVector(std::vector<uint8_t>(64 * 1024, 7))));
  obs::MetricsRegistry observed;
  int inflight = -1;
  int failures = 0;
  cloud::FunctionConfig fn;
  fn.name = "hedger";
  fn.memory_mib = 1792;
  fn.handler = [&](cloud::WorkerEnv& env,
                   std::string) -> sim::Async<Status> {
    env.hedge_config().enabled = true;
    cloud::S3Client client(env.services().s3, env.net());
    for (int i = 0; i < 200; ++i) {
      auto got = co_await client.Get("h", "obj");
      if (!got.ok() || (*got)->size() != 64 * 1024) ++failures;
    }
    observed = env.registry();
    inflight = env.inflight_requests();
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud.faas().CreateFunction(fn).ok());
  sim::Spawn([](cloud::Cloud* c) -> sim::Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "hedger", "");
  }(&cloud));
  cloud.sim().Run();
  EXPECT_EQ(failures, 0);
  EXPECT_GT(observed.counter(obs::Metric::kHedgedRequests), 0);
  EXPECT_LE(observed.counter(obs::Metric::kHedgeWins),
            observed.counter(obs::Metric::kHedgedRequests));
  EXPECT_EQ(inflight, 0);
}

// ---------------------------------------------------------------------------
// Chaos sweep: crash/straggler/error grids over real query fleets
// ---------------------------------------------------------------------------

/// One chaos run distilled: the merged result bytes plus the recovery
/// telemetry the sweep asserts on.
struct ChaosRun {
  std::vector<uint8_t> bytes;
  int64_t total_attempts = 0;
  int reinvoked_workers = 0;
  int64_t crashes_armed = 0;
  int64_t stragglers_armed = 0;
};

/// Runs Q1/Q6/Q12/Q14/Q3 fleets under injected fault schedules. The
/// mitigation stack (progress deadlines, speculative re-invocation,
/// first-result-wins dedup, idempotent exchange recovery) must deliver a
/// result byte-identical to the fault-free reference under every
/// crash/retry schedule.
class ChaosSweepTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 8000;
  static constexpr uint64_t kSeed = 77;

  static cloud::FaultPlan Crashes(double rate, uint64_t seed = 1) {
    cloud::FaultPlan plan;
    plan.enabled = true;
    plan.seed = seed;
    plan.worker_crash_rate = rate;
    return plan;
  }

  static cloud::FaultPlan Stragglers(double rate, uint64_t seed = 2) {
    cloud::FaultPlan plan;
    plan.enabled = true;
    plan.seed = seed;
    plan.straggler_rate = rate;
    plan.straggler_cpu_factor = 0.25;
    plan.straggler_net_factor = 0.25;
    return plan;
  }

  /// Everything at once: crashes, stragglers, flaky S3, flaky Invoke.
  static cloud::FaultPlan Mixed(uint64_t seed) {
    cloud::FaultPlan plan;
    plan.enabled = true;
    plan.seed = seed;
    plan.worker_crash_rate = 0.05;
    plan.straggler_rate = 0.2;
    plan.s3_get_error_rate = 0.01;
    plan.s3_put_error_rate = 0.01;
    plan.s3_slowdown_rate = 0.01;
    plan.invoke_error_rate = 0.02;
    return plan;
  }

  void SetUp() override {
    orders_rows_ =
        workload::MaxOrderKey(workload::GenerateLineitem(kRows, kSeed));
  }

  ChaosRun RunFleet(int query, const cloud::FaultPlan& fault,
                    JoinStrategyOverride strategy =
                        JoinStrategyOverride::kAuto) {
    cloud::CloudConfig cfg;
    cfg.fault = fault;
    cloud::Cloud cloud(cfg);
    Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    workload::LoadOptions li;
    li.num_rows = kRows;
    li.num_files = 8;
    li.row_groups_per_file = 4;
    li.seed = kSeed;
    LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
    auto load_orders = [&] {
      workload::LoadOptions oo;
      oo.num_rows = orders_rows_;
      oo.num_files = 4;
      oo.seed = 123;
      LAMBADA_CHECK_OK(workload::LoadOrders(&cloud.s3(), "tpch", "ord/", oo));
    };
    std::optional<Query> q;
    switch (query) {
      case 1:
        q = workload::TpchQ1("s3://tpch/li/*.lpq");
        break;
      case 6:
        q = workload::TpchQ6("s3://tpch/li/*.lpq");
        break;
      case 12:
        load_orders();
        q = workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/ord/*.lpq");
        break;
      case 14: {
        workload::LoadOptions po;
        po.num_rows = 20000;  // Sparse part table; identity needs no coverage.
        po.num_files = 2;
        po.seed = 321;
        LAMBADA_CHECK_OK(workload::LoadPart(&cloud.s3(), "tpch", "part/", po));
        q = workload::TpchQ14("s3://tpch/li/*.lpq", "s3://tpch/part/*.lpq");
        break;
      }
      default: {
        load_orders();
        workload::LoadOptions co;
        co.num_rows = 30000;  // Sparse customer table, same reasoning.
        co.num_files = 2;
        co.seed = 555;
        LAMBADA_CHECK_OK(
            workload::LoadCustomer(&cloud.s3(), "tpch", "cust/", co));
        q = workload::TpchQ3("s3://tpch/li/*.lpq", "s3://tpch/ord/*.lpq",
                             "s3://tpch/cust/*.lpq");
        break;
      }
    }
    RunOptions ropts;
    ropts.join_strategy = strategy;
    ropts.mitigation.enabled = true;
    ropts.mitigation.max_attempts = 6;
    ropts.mitigation.stall_timeout_s = 10.0;
    auto report = driver.RunToCompletion(*q, ropts);
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    ChaosRun run;
    run.bytes = engine::SerializeChunk(report->result);
    run.total_attempts = report->total_attempts;
    run.reinvoked_workers = report->reinvoked_workers;
    run.crashes_armed = cloud.fault().crashes_armed();
    run.stragglers_armed = cloud.fault().stragglers_armed();
    return run;
  }

  /// Fault grid shared by all sweeps: crash rates up to the acceptance 5%
  /// plus a heavy-crash point that guarantees recovery is exercised, a
  /// straggler-only schedule, and two all-at-once schedules whose seeds
  /// give two different retry orders.
  void Sweep(int query,
             JoinStrategyOverride strategy = JoinStrategyOverride::kAuto) {
    int64_t crashes_seen = 0;
    int64_t stragglers_seen = 0;
    int64_t reinvocations = 0;
    ChaosRun ref = RunFleet(query, cloud::FaultPlan{}, strategy);
    ASSERT_FALSE(ref.bytes.empty());
    EXPECT_EQ(ref.crashes_armed, 0);
    const std::vector<cloud::FaultPlan> plans = {
        Crashes(0.02, 11), Crashes(0.05, 12), Crashes(0.05, 13),
        Crashes(0.35, 14), Stragglers(0.3),   Mixed(21),
        Mixed(22),
    };
    for (size_t i = 0; i < plans.size(); ++i) {
      ChaosRun run = RunFleet(query, plans[i], strategy);
      EXPECT_EQ(run.bytes, ref.bytes) << "query " << query << ", plan " << i;
      crashes_seen += run.crashes_armed;
      stragglers_seen += run.stragglers_armed;
      reinvocations += run.reinvoked_workers;
    }
    // The grid must actually have exercised the fault paths.
    EXPECT_GT(crashes_seen, 0);
    EXPECT_GT(stragglers_seen, 0);
    EXPECT_GT(reinvocations, 0);
  }

  int64_t orders_rows_ = 0;
};

TEST_F(ChaosSweepTest, Q1SingleTableByteIdenticalUnderFaults) {
  Sweep(1);
}

TEST_F(ChaosSweepTest, Q6SingleTableByteIdenticalUnderFaults) {
  Sweep(6);
}

TEST_F(ChaosSweepTest, Q12PartitionedJoinByteIdenticalUnderFaults) {
  Sweep(12, JoinStrategyOverride::kForcePartitioned);
}

TEST_F(ChaosSweepTest, Q14BroadcastJoinByteIdenticalUnderFaults) {
  Sweep(14, JoinStrategyOverride::kForceBroadcast);
}

TEST_F(ChaosSweepTest, Q3MultiJoinByteIdenticalUnderFaults) {
  Sweep(3);
}

// ---------------------------------------------------------------------------
// Chaos under concurrency: fault grids through the serving front end
// ---------------------------------------------------------------------------

/// One serving-mode chaos run: the per-submission result bytes (submission
/// order) plus the injected-fault telemetry.
struct ServedRun {
  std::vector<std::vector<uint8_t>> bytes;
  int64_t crashes_armed = 0;
  int64_t stragglers_armed = 0;
};

/// Runs four sessions (Q1, Q6, Q12, Q1) through a QueryService over one
/// shared Cloud under `fault` — all submitted at virtual time zero when
/// `concurrent`, strictly one after the other otherwise.
ServedRun RunServedFleet(const cloud::FaultPlan& fault, bool concurrent) {
  constexpr int64_t kRows = 6000;
  constexpr uint64_t kSeed = 99;
  cloud::CloudConfig cfg;
  cfg.fault = fault;
  cloud::Cloud cloud(cfg);
  workload::LoadOptions li;
  li.num_rows = kRows;
  li.num_files = 6;
  li.row_groups_per_file = 2;
  li.seed = kSeed;
  LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
  workload::LoadOptions oo;
  oo.num_rows =
      workload::MaxOrderKey(workload::GenerateLineitem(kRows, kSeed));
  oo.num_files = 3;
  oo.seed = 124;
  LAMBADA_CHECK_OK(workload::LoadOrders(&cloud.s3(), "tpch", "ord/", oo));

  ServingOptions sopts;
  sopts.max_concurrent = 4;
  QueryService svc(&cloud, sopts);
  TenantOptions tenant;
  tenant.id = "grid";
  tenant.max_concurrent = 4;
  tenant.queue_deadline_s = 1e9;
  LAMBADA_CHECK_OK(svc.AddTenant(tenant));

  auto queries = std::make_shared<std::vector<Query>>();
  queries->push_back(workload::TpchQ1("s3://tpch/li/*.lpq"));
  queries->push_back(workload::TpchQ6("s3://tpch/li/*.lpq"));
  queries->push_back(
      workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/ord/*.lpq"));
  queries->push_back(workload::TpchQ1("s3://tpch/li/*.lpq"));
  auto results = std::make_shared<std::vector<Result<QueryReport>>>(
      queries->size(), Status::Internal("pending"));

  if (concurrent) {
    for (size_t i = 0; i < queries->size(); ++i) {
      sim::Spawn([](QueryService* s, std::shared_ptr<std::vector<Query>> qs,
                    std::shared_ptr<std::vector<Result<QueryReport>>> out,
                    size_t idx) -> sim::Async<void> {
        // Named local, not a prvalue: GCC 12 bitwise-copies braced prvalue
        // aggregates when promoting them into coroutine frames.
        RunOptions ro;
        ro.mitigation.enabled = true;
        ro.mitigation.max_attempts = 6;
        ro.mitigation.stall_timeout_s = 10.0;
        (*out)[idx] = co_await s->Submit("grid", (*qs)[idx], ro);
      }(&svc, queries, results, i));
    }
  } else {
    sim::Spawn([](QueryService* s, std::shared_ptr<std::vector<Query>> qs,
                  std::shared_ptr<std::vector<Result<QueryReport>>> out)
                   -> sim::Async<void> {
      RunOptions ro;
      ro.mitigation.enabled = true;
      ro.mitigation.max_attempts = 6;
      ro.mitigation.stall_timeout_s = 10.0;
      for (size_t i = 0; i < qs->size(); ++i) {
        (*out)[i] = co_await s->Submit("grid", (*qs)[i], ro);
      }
    }(&svc, queries, results));
  }
  cloud.sim().Run();

  ServedRun run;
  for (const auto& r : *results) {
    LAMBADA_CHECK(r.ok()) << r.status().ToString();
    run.bytes.push_back(engine::SerializeChunk(r->result));
  }
  run.crashes_armed = cloud.fault().crashes_armed();
  run.stragglers_armed = cloud.fault().stragglers_armed();
  return run;
}

/// Four sessions sharing one deployment, with workers crashing and
/// straggling underneath all of them at once: every query of every plan
/// must come back byte-identical to the fault-free solo reference.
TEST_F(ChaosSweepTest, FourConcurrentServedSessionsByteIdenticalUnderFaults) {
  ServedRun ref = RunServedFleet(cloud::FaultPlan{}, /*concurrent=*/false);
  ASSERT_EQ(ref.bytes.size(), 4u);
  EXPECT_EQ(ref.crashes_armed, 0);
  const std::vector<cloud::FaultPlan> plans = {
      Crashes(0.05, 61), Crashes(0.35, 62), Stragglers(0.3, 63), Mixed(64),
  };
  int64_t crashes_seen = 0;
  int64_t stragglers_seen = 0;
  for (size_t p = 0; p < plans.size(); ++p) {
    ServedRun run = RunServedFleet(plans[p], /*concurrent=*/true);
    ASSERT_EQ(run.bytes.size(), ref.bytes.size());
    for (size_t i = 0; i < ref.bytes.size(); ++i) {
      EXPECT_EQ(run.bytes[i], ref.bytes[i])
          << "plan " << p << ", session " << i;
    }
    crashes_seen += run.crashes_armed;
    stragglers_seen += run.stragglers_armed;
  }
  EXPECT_GT(crashes_seen, 0);
  EXPECT_GT(stragglers_seen, 0);
}

/// When a shared-scan fetcher burns through its whole retry budget and
/// fails, the attacher must not be poisoned by the fetcher's error: it
/// re-arms the GET itself and completes with the real bytes. Seeds are
/// scanned deterministically until one produces that exact schedule (first
/// fetch exhausts retries, re-armed fetch succeeds); the shape of every
/// intermediate run is asserted along the way.
TEST(ServingChaosTest, AttachersSurviveFetcherFailureByRearming) {
  bool witnessed = false;
  for (uint64_t seed = 1; seed <= 24 && !witnessed; ++seed) {
    cloud::CloudConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.seed = seed;
    cfg.fault.s3_get_error_rate = 0.9;
    cloud::Cloud cloud(cfg);
    LAMBADA_CHECK_OK(cloud.s3().CreateBucket("b"));
    obs::MetricsRegistry metrics;
    cloud::SharedScanBroker broker(&cloud.sim(), &metrics);
    auto a_st = std::make_shared<Status>(Status::OK());
    auto b_st = std::make_shared<Status>(Status::OK());
    auto b_len = std::make_shared<int64_t>(-1);
    sim::Spawn([](cloud::Cloud* c, cloud::SharedScanBroker* br,
                  std::shared_ptr<Status> a_st, std::shared_ptr<Status> b_st,
                  std::shared_ptr<int64_t> b_len) -> sim::Async<void> {
      {
        cloud::S3Client setup(&c->s3(), c->driver_net());
        LAMBADA_CHECK_OK(co_await setup.Put(
            "b", "obj",
            Buffer::FromVector(std::vector<uint8_t>(64 * 1024, 0x5a))));
      }
      auto read = [](cloud::Cloud* c, cloud::SharedScanBroker* br,
                     std::shared_ptr<Status> st,
                     std::shared_ptr<int64_t> len) -> sim::Async<void> {
        cloud::S3Client client(&c->s3(), c->driver_net());
        auto r = co_await br->Get(&client, "b", "obj", 0, 64 * 1024);
        *st = r.ok() ? Status::OK() : r.status();
        if (r.ok()) {
          LAMBADA_CHECK((*r)->data()[7] == 0x5a);
          if (len != nullptr) *len = static_cast<int64_t>((*r)->size());
        }
      };
      std::vector<sim::Async<void>> readers;
      readers.push_back(read(c, br, a_st, nullptr));   // Fetcher.
      readers.push_back(read(c, br, b_st, b_len));     // Attacher.
      co_await sim::WhenAllVoid(&c->sim(), std::move(readers));
    }(&cloud, &broker, a_st, b_st, b_len));
    cloud.sim().Run();

    const int64_t fetches = metrics.counter(obs::Metric::kSharedScanFetches);
    const int64_t attaches =
        metrics.counter(obs::Metric::kSharedScanAttaches);
    const int64_t rearms = metrics.counter(obs::Metric::kSharedScanRearms);
    // Shape invariants that hold for every seed: one initial fetch plus
    // one attach; at most one re-arm (the second reader is the only
    // candidate); a successful attacher always saw the full object.
    EXPECT_EQ(attaches, 1) << "seed " << seed;
    EXPECT_GE(fetches, 1) << "seed " << seed;
    EXPECT_LE(fetches, 2) << "seed " << seed;
    EXPECT_EQ(rearms, fetches - 1) << "seed " << seed;
    if (b_st->ok()) {
      EXPECT_EQ(*b_len, 64 * 1024) << "seed " << seed;
    }
    witnessed = !a_st->ok() && b_st->ok() && fetches == 2 && rearms == 1;
  }
  EXPECT_TRUE(witnessed)
      << "no seed in [1, 24] produced fetcher-fails/attacher-survives";
}

// ---------------------------------------------------------------------------
// Invoker-subtree recovery
// ---------------------------------------------------------------------------

/// A fault plan that kills tree invokers (and only invokers): a worker
/// with a subtree to start dies before any child or mid-branch, weighted
/// by `before_w` / `during_w`, for generations <= `max_generation`.
cloud::FaultPlan InvokerCrashes(double rate, int max_generation,
                                double before_w, double during_w,
                                uint64_t seed) {
  cloud::FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.invoker_crash_rate = rate;
  plan.invoker_crash_max_generation = max_generation;
  plan.invoker_crash_before_weight = before_w;
  plan.invoker_crash_during_weight = during_w;
  return plan;
}

TEST(FailureTest, LostGen1BranchRecoversViaSubtreeReinvocation) {
  // A 36-worker two-level fleet (6 roots of 6): gen-1 invokers die before
  // starting their branch, leaving whole ID ranges silent. With subtree
  // recovery the driver re-invokes only the dead branch through its
  // invoker — one Invoke call, branch-sized re-runs, never a fleet
  // restart — and the merged result stays byte-identical to the
  // fault-free reference.
  auto run = [](const cloud::FaultPlan& fault, int* subtree_reinvocations,
                int* reinvoked, int64_t* invoker_crashes) {
    cloud::CloudConfig cfg;
    cfg.fault = fault;
    cloud::Cloud cloud(cfg);
    Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    UploadTable(cloud, "branch/", 36, 400);
    auto q = Query::FromParquet("s3://data/branch/*.lpq");
    RunOptions ropts;
    ropts.mitigation.enabled = true;
    ropts.mitigation.subtree_recovery = true;
    ropts.mitigation.max_attempts = 6;
    ropts.mitigation.stall_timeout_s = 5.0;
    auto report = driver.RunToCompletion(q, ropts);
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    LAMBADA_CHECK(report->tree_depth == 2);
    if (subtree_reinvocations != nullptr) {
      *subtree_reinvocations = report->subtree_reinvocations;
    }
    if (reinvoked != nullptr) *reinvoked = report->reinvoked_workers;
    if (invoker_crashes != nullptr) {
      *invoker_crashes = cloud.fault().invoker_crashes_armed();
    }
    return engine::SerializeChunk(report->result);
  };
  const cloud::FaultPlan dead_branch = InvokerCrashes(0.4, 1, 1.0, 0.0, 7);
  auto ref = run(cloud::FaultPlan{}, nullptr, nullptr, nullptr);
  int branches = 0;
  int reinvoked = 0;
  int64_t crashes = 0;
  auto got = run(dead_branch, &branches, &reinvoked, &crashes);
  EXPECT_EQ(got, ref);
  EXPECT_GE(crashes, 1);
  EXPECT_GE(branches, 1);
  EXPECT_GE(reinvoked, 2);   // A branch...
  EXPECT_LT(reinvoked, 36);  // ...not the fleet.
}

TEST(FailureTest, DepthThreeReinvokedWorkerCarriesItsInputs) {
  // A 24-worker fleet forced through the depth-3 tree, with workers
  // crashing. The driver re-invokes a lost worker alone, as the size-1
  // node of the tree, through the same payload builder as the tree's
  // roots: like its first attempt, the re-invoked worker carries its own
  // inputs and runs on them. The merged result stays byte-identical to
  // the fault-free run.
  auto run = [](const cloud::FaultPlan& fault, int* reinvoked,
                std::shared_ptr<obs::Tracer>* trace) {
    cloud::CloudConfig cfg;
    cfg.fault = fault;
    cloud::Cloud cloud(cfg);
    DriverOptions dopts;
    dopts.invocation_tree_depth = 3;
    Driver driver(&cloud, dopts);
    LAMBADA_CHECK_OK(driver.Install());
    UploadTable(cloud, "deep/", 24, 400);
    auto q = Query::FromParquet("s3://data/deep/*.lpq");
    RunOptions ropts;
    ropts.mitigation.enabled = true;
    ropts.trace.enabled = true;
    auto report = driver.RunToCompletion(q, ropts);
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    LAMBADA_CHECK(report->tree_depth == 3);
    *reinvoked = report->reinvoked_workers;
    *trace = report->trace;
    return engine::SerializeChunk(report->result);
  };
  int reinvoked = 0;
  std::shared_ptr<obs::Tracer> trace;
  const auto ref = run(cloud::FaultPlan{}, &reinvoked, &trace);
  EXPECT_EQ(reinvoked, 0);
  cloud::FaultPlan crashes;
  crashes.enabled = true;
  crashes.seed = 1;
  crashes.worker_crash_rate = 0.05;
  EXPECT_EQ(run(crashes, &reinvoked, &trace), ref);
  EXPECT_GE(reinvoked, 1);
  // A re-invoked attempt parsed its payload and started its work.
  int retries = 0;
  for (const auto& s : trace->spans()) {
    if (s.name != "worker") continue;
    for (const auto& [key, value] : s.args) {
      if (key == "attempt" && value != "0") ++retries;
    }
  }
  EXPECT_GE(retries, 1);
}

// ---------------------------------------------------------------------------
// Fleet scale: 10k-worker invocation trees under invoker loss
// ---------------------------------------------------------------------------

/// Q1/Q6/Q12 fleets of 10000 workers started through the depth-3
/// invocation tree, with gen-1 and gen-2 invokers dying underneath. Every
/// faulted run must come back byte-identical to the fault-free reference,
/// and recovery must cost lost-branch-sized re-invocation, never a fleet
/// restart. Registered as its own ctest entry under the `slow_fleet`
/// label (tests/CMakeLists.txt): each run starts >10k simulated workers.
class TenKFleetChaosTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 10000;
  static constexpr uint64_t kSeed = 5;
  /// Q12's orders relation, which every worker reads whole: its key
  /// prefix and how it is loaded (num_rows 0: every order key the
  /// lineitems use).
  std::string orders_prefix_ = "ord/";
  workload::LoadOptions orders_ = [] {
    workload::LoadOptions oo;
    oo.num_rows = 0;
    oo.num_files = 4;
    oo.seed = 123;
    return oo;
  }();

  struct FleetRun {
    std::vector<uint8_t> bytes;
    int tree_depth = 0;
    int subtree_reinvocations = 0;
    int reinvoked_workers = 0;
    int workers = 0;
    int64_t invoker_crashes = 0;
  };

  FleetRun RunFleet(int query, const cloud::FaultPlan& fault) {
    cloud::CloudConfig cfg;
    cfg.concurrency_limit = 24000;
    // S3 request limits scale per prefix; a 10000-file dataset spans many
    // partitions, so model a bucket scaled to ~10x the single-prefix
    // rates (otherwise Q12's broadcast build fetch alone is 40k GETs
    // against one limiter and the run dies in SlowDown, not chaos).
    cfg.s3.read_rate_per_bucket = 55000.0;
    cfg.s3.write_rate_per_bucket = 35000.0;
    cfg.s3.rate_burst = 2000.0;
    cfg.fault = fault;
    cloud::Cloud cloud(cfg);
    Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    workload::LoadOptions li;
    li.num_rows = kWorkers;  // One row per file: the fan-out is the point.
    li.num_files = kWorkers;
    li.row_groups_per_file = 1;
    li.seed = kSeed;
    LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
    std::optional<Query> q;
    switch (query) {
      case 1:
        q = workload::TpchQ1("s3://tpch/li/*.lpq");
        break;
      case 6:
        q = workload::TpchQ6("s3://tpch/li/*.lpq");
        break;
      default: {
        workload::LoadOptions oo = orders_;
        if (oo.num_rows == 0) {
          oo.num_rows = workload::MaxOrderKey(
              workload::GenerateLineitem(kWorkers, kSeed));
        }
        LAMBADA_CHECK_OK(
            workload::LoadOrders(&cloud.s3(), "tpch", orders_prefix_, oo));
        q = workload::TpchQ12("s3://tpch/li/*.lpq",
                              "s3://tpch/" + orders_prefix_ + "*.lpq");
        break;
      }
    }
    RunOptions ropts;
    ropts.mitigation.enabled = true;
    ropts.mitigation.subtree_recovery = true;
    ropts.mitigation.fleet_aware = true;
    ropts.mitigation.max_attempts = 6;
    auto report = driver.RunToCompletion(*q, ropts);
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    FleetRun run;
    run.bytes = engine::SerializeChunk(report->result);
    run.tree_depth = report->tree_depth;
    run.subtree_reinvocations = report->subtree_reinvocations;
    run.reinvoked_workers = report->reinvoked_workers;
    run.workers = report->workers;
    run.invoker_crashes = cloud.fault().invoker_crashes_armed();
    return run;
  }

  void Grid(int query, const cloud::FaultPlan& fault) {
    FleetRun ref = RunFleet(query, cloud::FaultPlan{});
    EXPECT_EQ(ref.invoker_crashes, 0);
    EXPECT_EQ(ref.tree_depth, 3);
    EXPECT_GE(ref.workers, 9000);
    FleetRun run = RunFleet(query, fault);
    EXPECT_EQ(run.bytes, ref.bytes) << "query " << query;
    EXPECT_GE(run.invoker_crashes, 1);
    EXPECT_GE(run.subtree_reinvocations, 1);
    EXPECT_GT(run.reinvoked_workers, 0);
    // Lost-branch-sized recovery, never a fleet restart.
    EXPECT_LT(run.reinvoked_workers, run.workers / 2);
  }
};

TEST_F(TenKFleetChaosTest, Q1Gen1InvokerLossByteIdentical) {
  Grid(1, InvokerCrashes(0.08, 1, 1.0, 0.0, 31));
}

TEST_F(TenKFleetChaosTest, Q6Gen2InvokerLossByteIdentical) {
  Grid(6, InvokerCrashes(0.04, 2, 1.0, 1.0, 32));
}

TEST_F(TenKFleetChaosTest, Q12MidInvokeLossByteIdentical) {
  Grid(12, InvokerCrashes(0.08, 2, 0.0, 1.0, 33));
}

TEST_F(TenKFleetChaosTest, Q12WideBroadcastFitsTheInvokeLimit) {
  // Every worker's input names the 4 files of the broadcast orders
  // relation under 142-character keys, the length of a Spark task's
  // output path: about 630 B per worker, so the 507-worker subtrees of
  // the unbounded depth-3 plan would need payloads of up to 321 KB, over
  // the 256 KB Invoke limit. The driver narrows the subtrees to 343
  // workers (217 KB) and the query runs. The width comes from the keys,
  // not from more files: each file costs every one of the 10,000 workers
  // its reads.
  orders_prefix_ =
      "warehouse/tpch/sf1000/orders/dt=1998-08-02/"
      "run-6a1f3c2e-9b7d-4e8a-a1b2-c3d4e5f60718/_temporary/0/"
      "task_202608021200_0017_m_000017/";
  // Payload width is the point, not join work: a small relation read in
  // one request per file.
  orders_.num_rows = 1000;
  orders_.row_groups_per_file = 1;
  FleetRun run = RunFleet(12, cloud::FaultPlan{});
  EXPECT_GE(run.workers, 9000);
  EXPECT_EQ(run.tree_depth, 3);
  EXPECT_FALSE(run.bytes.empty());
  EXPECT_EQ(run.invoker_crashes, 0);
  EXPECT_EQ(run.reinvoked_workers, 0);
}

TEST(FailureTest, MalformedPayloadCountsAsHandlerFailure) {
  cloud::Cloud cloud;
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  ASSERT_TRUE(driver.EnsureFunction(1792).ok());
  sim::Spawn([](cloud::Cloud* c) -> sim::Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "lambada-w1792", "not a payload");
  }(&cloud));
  cloud.sim().Run();
  EXPECT_EQ(cloud.faas().failed_handlers(), 1);
}

}  // namespace
}  // namespace lambada::core
