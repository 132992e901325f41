#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "cloud/cloud.h"
#include "core/driver.h"
#include "core/sql.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/tpch.h"

#ifndef LAMBADA_SOURCE_DIR
#error "obs_test needs LAMBADA_SOURCE_DIR to locate its golden files"
#endif

namespace lambada {
namespace {

using core::QueryReport;
using core::RunOptions;

// ---------------------------------------------------------------------------
// Golden helpers. Goldens live in tests/golden/ and are byte-compared;
// regenerate with LAMBADA_UPDATE_GOLDENS=1 after an intentional change.
// ---------------------------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(LAMBADA_SOURCE_DIR) + "/tests/golden/" + name;
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("LAMBADA_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with LAMBADA_UPDATE_GOLDENS=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str()) << "golden mismatch: " << name;
}

// ---------------------------------------------------------------------------
// Traced fleet harness: a fixed deployment + TPC-H load. The determinism
// contract says the trace is a function of (workload, seed) alone.
// ---------------------------------------------------------------------------

QueryReport RunTraced(int query, cloud::FaultPlan fault = {},
                      bool mitigate = false) {
  cloud::CloudConfig cfg;
  cfg.fault = fault;
  cloud::Cloud cloud(cfg);
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());
  workload::LoadOptions li;
  li.num_rows = 8000;
  li.num_files = 8;
  li.row_groups_per_file = 4;
  li.seed = 77;
  LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
  std::optional<core::Query> q;
  if (query == 6) {
    q = workload::TpchQ6("s3://tpch/li/*.lpq");
  } else {
    const int64_t orders_rows =
        workload::MaxOrderKey(workload::GenerateLineitem(li.num_rows, 77));
    workload::LoadOptions oo;
    oo.num_rows = orders_rows;
    oo.num_files = 4;
    oo.seed = 123;
    LAMBADA_CHECK_OK(workload::LoadOrders(&cloud.s3(), "tpch", "orders/", oo));
    if (query == 3) {
      workload::LoadOptions co;
      co.num_rows = 60;
      co.num_files = 2;
      co.seed = 555;
      LAMBADA_CHECK_OK(
          workload::LoadCustomer(&cloud.s3(), "tpch", "customer/", co));
      q = workload::TpchQ3("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq",
                           "s3://tpch/customer/*.lpq");
    } else {
      q = workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq");
    }
  }
  RunOptions ropts;
  ropts.trace.enabled = true;
  if (query == 12) {
    // Pin the strategy so the golden is not hostage to cost-model tweaks.
    ropts.join_strategy = core::JoinStrategyOverride::kForcePartitioned;
  }
  if (mitigate) {
    ropts.mitigation.enabled = true;
    ropts.mitigation.max_attempts = 6;
    ropts.mitigation.stall_timeout_s = 10.0;
    ropts.hedge_gets = true;
  }
  auto report = driver.RunToCompletion(*q, ropts);
  LAMBADA_CHECK(report.ok()) << report.status().ToString();
  LAMBADA_CHECK(report->trace != nullptr);
  return *std::move(report);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SerdeRoundTripAndMerge) {
  obs::MetricsRegistry a;
  a.Add(obs::Metric::kRowsScanned, 1000);
  a.Add(obs::Metric::kScanBytesMoved, 1 << 20);
  a.Set(obs::Metric::kProcessingTime, 1.25);
  a.Observe(obs::Metric::kExchangeRoundTime, 0.002);
  a.Observe(obs::Metric::kExchangeRoundTime, 5.0);

  BinaryWriter w;
  a.Serialize(&w);
  auto bytes = w.Take();
  BinaryReader r(bytes.data(), bytes.size());
  auto back = obs::MetricsRegistry::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->counter(obs::Metric::kRowsScanned), 1000);
  EXPECT_EQ(back->counter(obs::Metric::kScanBytesMoved), 1 << 20);
  EXPECT_DOUBLE_EQ(back->gauge(obs::Metric::kProcessingTime), 1.25);
  const obs::Histogram* h = back->histogram(obs::Metric::kExchangeRoundTime);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_DOUBLE_EQ(h->sum, 5.002);

  obs::MetricsRegistry b;
  b.Add(obs::Metric::kRowsScanned, 11);
  b.Set(obs::Metric::kProcessingTime, 0.75);
  b.Observe(obs::Metric::kExchangeRoundTime, 0.002);
  b.Merge(*back);
  EXPECT_EQ(b.counter(obs::Metric::kRowsScanned), 1011);
  EXPECT_DOUBLE_EQ(b.gauge(obs::Metric::kProcessingTime), 2.0);
  EXPECT_EQ(b.histogram(obs::Metric::kExchangeRoundTime)->count, 3);
}

TEST(MetricsRegistryTest, NameTableIsDenseAndUnique) {
  const auto& table = obs::MetricTable();
  ASSERT_EQ(table.size(), static_cast<size_t>(obs::Metric::kCount));
  std::set<std::string> names;
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(table[i].id), i);
    EXPECT_TRUE(names.insert(table[i].name).second)
        << "duplicate metric name " << table[i].name;
  }
}

TEST(MetricsRegistryTest, EmptyRegistrySerializesEmpty) {
  obs::MetricsRegistry empty;
  EXPECT_TRUE(empty.empty());
  BinaryWriter w;
  empty.Serialize(&w);
  auto bytes = w.Take();
  BinaryReader r(bytes.data(), bytes.size());
  auto back = obs::MetricsRegistry::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_EQ(r.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, SpanTreeAndNullTolerance) {
  sim::Simulator sim;
  obs::Tracer t(&sim);
  EXPECT_EQ(t.span(t.root()).name, "query");
  uint64_t child = t.BeginSpan(0, "driver", "plan");
  EXPECT_EQ(t.span(child).parent, t.root());
  t.AddArg(child, "workers", static_cast<int64_t>(8));
  t.Instant(child, "note");
  t.EndSpan(child);
  t.EndSpan(child);  // Idempotent.
  EXPECT_GE(t.span(child).end, 0.0);

  // Tracing disabled: Begin returns 0 and every mutator is a no-op.
  EXPECT_EQ(obs::Begin(nullptr, 0, "x", "y"), 0u);
  obs::End(nullptr, 0);
  t.AddArg(0, "k", "v");
  t.EndSpan(0);
}

// ---------------------------------------------------------------------------
// Deterministic trace goldens: byte-identical text across identical runs,
// matching the committed golden.
// ---------------------------------------------------------------------------

TEST(TraceGoldenTest, Q6SingleTableTraceMatchesGolden) {
  ExpectMatchesGolden(RunTraced(6).trace->DeterministicText(),
                      "trace_q6.txt");
}

TEST(TraceGoldenTest, Q12PartitionedJoinTraceMatchesGolden) {
  ExpectMatchesGolden(RunTraced(12).trace->DeterministicText(),
                      "trace_q12.txt");
}

TEST(TraceGoldenTest, IdenticalRunsProduceIdenticalTraces) {
  QueryReport a = RunTraced(6);
  QueryReport b = RunTraced(6);
  EXPECT_EQ(a.trace->DeterministicText(), b.trace->DeterministicText());
  // The Chrome export is a pure function of the spans: also identical.
  EXPECT_EQ(a.trace->ChromeTraceJson(), b.trace->ChromeTraceJson());
}

// ---------------------------------------------------------------------------
// Fault annotations: a chaos plan's injected faults must surface as
// annotations on the spans where they struck, and the trace must stay
// identical across runs under chaos + mitigation.
// ---------------------------------------------------------------------------

TEST(TraceFaultTest, ChaosRunAnnotatesFaultsOnTheRightSpans) {
  cloud::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 4242;
  plan.worker_crash_rate = 0.25;
  plan.straggler_rate = 0.3;
  plan.straggler_cpu_factor = 0.05;
  plan.straggler_net_factor = 0.05;
  plan.s3_get_error_rate = 0.02;
  plan.s3_slowdown_rate = 0.05;
  QueryReport r1 = RunTraced(6, plan, /*mitigate=*/true);
  EXPECT_EQ(r1.trace->DeterministicText(),
            RunTraced(6, plan, true).trace->DeterministicText());

  bool crash_on_worker = false;
  bool straggler_armed = false;
  bool s3_fault_instant = false;
  bool reinvoke_on_collect = false;
  for (const auto& s : r1.trace->spans()) {
    for (const auto& [k, v] : s.args) {
      // Fate annotations belong to worker-attempt root spans only.
      if (k.rfind("fault.", 0) == 0) {
        EXPECT_EQ(s.name, "worker");
      }
      if (k == "fault.straggler_cpu") straggler_armed = true;
    }
    for (const auto& [when, what] : s.instants) {
      if (what == "fault.crash") {
        crash_on_worker = true;
        // The crash instant lands on the span that was current when the
        // worker died — a worker-attempt span or one of its operation
        // children, never a driver span.
        EXPECT_NE(s.track, 0) << "crash annotated on a driver span";
      }
      // (no else: each instant may match several tallies)
      if (what.rfind("fault.s3_", 0) == 0 || what == "s3.retry") {
        s3_fault_instant = true;
      }
      if (what.rfind("reinvoke ", 0) == 0) {
        EXPECT_EQ(s.cat, "driver");
        EXPECT_EQ(s.name, "collect");
        reinvoke_on_collect = true;
      }
    }
  }
  EXPECT_TRUE(crash_on_worker);
  EXPECT_TRUE(straggler_armed);
  EXPECT_TRUE(s3_fault_instant);
  EXPECT_TRUE(reinvoke_on_collect);
  EXPECT_GT(r1.total_attempts, r1.workers);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

TEST(ExplainAnalyzeTest, Q3MatchesGolden) {
  QueryReport r1 = RunTraced(3);
  ASSERT_FALSE(r1.explain_analyze_text.empty());
  ExpectMatchesGolden(r1.explain_analyze_text, "explain_analyze_q3.txt");
  // The annotated rendering starts from the optimizer's plan text.
  EXPECT_NE(r1.explain_analyze_text.find(r1.explain_text.substr(
                0, r1.explain_text.find('\n'))),
            std::string::npos);
}

TEST(ExplainAnalyzeTest, SingleTableQueryGetsScanActuals) {
  QueryReport r = RunTraced(6);
  ASSERT_FALSE(r.explain_text.empty())
      << "single-table plans must render explain text";
  EXPECT_NE(r.explain_analyze_text.find("actual: rows_scanned="),
            std::string::npos);
  EXPECT_NE(r.explain_analyze_text.find("fleet metrics:"),
            std::string::npos);
  // Zone-map pruning drops row groups before decode, so the fleet scans a
  // strict subset of the 8000 loaded rows.
  EXPECT_GT(r.fleet_metrics.counter(obs::Metric::kRowsScanned), 0);
  EXPECT_LE(r.fleet_metrics.counter(obs::Metric::kRowsScanned), 8000);
  EXPECT_GT(r.fleet_metrics.counter(obs::Metric::kRowGroupsPruned), 0);
}

TEST(ExplainAnalyzeTest, SqlFrontendRunsAndRenders) {
  cloud::Cloud cloud;
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());
  workload::LoadOptions li;
  li.num_rows = 2000;
  li.num_files = 4;
  li.seed = 7;
  LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
  auto out = std::make_shared<Result<std::string>>(
      Status::Internal("did not run"));
  // Arguments are named locals (not call-site temporaries): GCC 12
  // miscompiles full-expression temporaries held across a co_await
  // suspension, double-destroying them at frame teardown.
  sim::Spawn([](core::Driver* d, std::shared_ptr<Result<std::string>> res)
                 -> sim::Async<void> {
    const std::string sql =
        "EXPLAIN ANALYZE SELECT SUM(l_extendedprice) AS revenue "
        "FROM 's3://tpch/li/*.lpq' WHERE l_quantity < 24";
    core::RunOptions ropts;
    *res = co_await core::ExplainAnalyzeSql(d, sql, ropts);
  }(&driver, out));
  cloud.sim().Run();
  ASSERT_TRUE(out->ok()) << out->status().ToString();
  EXPECT_NE((*out)->find("plan for"), std::string::npos);
  EXPECT_NE((*out)->find("actual: rows_scanned="), std::string::npos);
  EXPECT_NE((*out)->find("actual totals:"), std::string::npos);

  // A malformed prefix is rejected up front.
  auto bad = std::make_shared<Result<std::string>>(Status::OK());
  sim::Spawn([](core::Driver* d, std::shared_ptr<Result<std::string>> res)
                 -> sim::Async<void> {
    const std::string sql = "SELECT 1";
    core::RunOptions ropts;
    *res = co_await core::ExplainAnalyzeSql(d, sql, ropts);
  }(&driver, bad));
  cloud.sim().Run();
  EXPECT_FALSE(bad->ok());
}

// ---------------------------------------------------------------------------
// Tracing must not perturb the simulation: latency, cost, and results of
// a traced run are bit-identical to the untraced run.
// ---------------------------------------------------------------------------

TEST(TraceOverheadTest, TracingDoesNotPerturbTheSimulation) {
  QueryReport traced = RunTraced(12);
  cloud::Cloud cloud;
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());
  workload::LoadOptions li;
  li.num_rows = 8000;
  li.num_files = 8;
  li.row_groups_per_file = 4;
  li.seed = 77;
  LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
  workload::LoadOptions oo;
  oo.num_rows =
      workload::MaxOrderKey(workload::GenerateLineitem(li.num_rows, 77));
  oo.num_files = 4;
  oo.seed = 123;
  LAMBADA_CHECK_OK(workload::LoadOrders(&cloud.s3(), "tpch", "orders/", oo));
  RunOptions ropts;
  ropts.join_strategy = core::JoinStrategyOverride::kForcePartitioned;
  auto plain = driver.RunToCompletion(
      workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq"),
      ropts);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->trace, nullptr);
  EXPECT_DOUBLE_EQ(plain->latency_s, traced.latency_s);
  EXPECT_EQ(plain->cost.s3_get_requests, traced.cost.s3_get_requests);
  EXPECT_EQ(plain->cost.s3_put_requests, traced.cost.s3_put_requests);
  EXPECT_EQ(plain->result.num_rows(), traced.result.num_rows());
  EXPECT_EQ(plain->fleet_metrics.ToText(), traced.fleet_metrics.ToText());
}

}  // namespace
}  // namespace lambada
