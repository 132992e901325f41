// Reproduces Figure 13 of the paper: break-down and per-phase running time
// distribution of TwoLevelExchange on 1 TB (1250 workers) and 3 TB (2500
// workers). For each phase we report the fastest worker (the informal
// lower bound the paper plots) and the distribution across workers, plus
// the share of end-to-end time attributable to stragglers and waiting.

#include <memory>

#include "bench_util.h"
#include "cloud/cloud.h"
#include "core/exchange.h"
#include "engine/table.h"

using namespace lambada;        // NOLINT
using namespace lambada::bench; // NOLINT
using sim::Async;

namespace {

struct BreakdownResult {
  std::vector<core::ExchangeMetrics> metrics;  // Per worker.
  std::vector<double> total_s;                 // Per worker, end-to-end.
  double end_to_end = 0;
};

BreakdownResult RunBreakdown(int P, double total_bytes) {
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = P + 64;
  cloud::Cloud cloud(cfg);
  core::ExchangeSpec spec;
  spec.keys = {"k"};
  spec.levels = 2;
  spec.num_buckets = 32;
  spec.exchange_id = "fig13";
  LAMBADA_CHECK_OK(core::CreateExchangeBuckets(&cloud.s3(), spec));

  auto schema = std::make_shared<engine::Schema>(std::vector<engine::Field>{
      {"k", engine::DataType::kInt64}, {"v", engine::DataType::kFloat64}});
  const int kRealRows = 2000;
  const double scale = total_bytes / P / (kRealRows * 16.0);

  BreakdownResult result;
  result.metrics.resize(static_cast<size_t>(P));
  result.total_s.resize(static_cast<size_t>(P));
  cloud::FunctionConfig fn;
  fn.name = "xchg";
  fn.memory_mib = 2048;
  fn.timeout_s = 1800;
  fn.handler = [&, schema, scale](cloud::WorkerEnv& env,
                                  std::string payload) -> Async<Status> {
    int p = std::stoi(payload);
    env.data_scale = scale;
    Rng rng(99 + static_cast<uint64_t>(p));
    std::vector<int64_t> keys(kRealRows);
    std::vector<double> vals(kRealRows);
    for (int i = 0; i < kRealRows; ++i) {
      keys[i] = rng.UniformInt(0, 1 << 30);
      vals[i] = rng.NextDouble();
    }
    engine::TableChunk input(
        *&schema, {engine::Column::Int64(std::move(keys)),
                   engine::Column::Float64(std::move(vals))});
    double t0 = env.sim()->Now();
    auto out = co_await core::RunExchange(
        env, spec, p, P, std::move(input),
        &result.metrics[static_cast<size_t>(p)]);
    if (!out.ok()) co_return out.status();
    result.total_s[static_cast<size_t>(p)] = env.sim()->Now() - t0;
    result.end_to_end = std::max(result.end_to_end, env.sim()->Now());
    co_return Status::OK();
  };
  LAMBADA_CHECK_OK(cloud.faas().CreateFunction(fn));
  for (int p = 0; p < P; ++p) {
    sim::Spawn([](cloud::Cloud* c, int worker) -> Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "xchg",
                                std::to_string(worker));
    }(&cloud, p));
  }
  cloud.sim().Run();
  return result;
}

void Describe(const char* title, const BreakdownResult& r) {
  std::printf("\n--- %s ---\n", title);
  // Per-phase distributions (two rounds: write / wait / read).
  for (int round = 0; round < 2; ++round) {
    std::vector<double> write, wait, read;
    for (const auto& m : r.metrics) {
      if (static_cast<size_t>(round) >= m.rounds.size()) continue;
      write.push_back(m.rounds[round].partition_s + m.rounds[round].write_s);
      wait.push_back(m.rounds[round].wait_s);
      read.push_back(m.rounds[round].read_s);
    }
    Table t({"phase", "fastest [s]", "median [s]", "p95 [s]",
             "slowest [s]"},
            std::string(title) + ", round " + std::to_string(round + 1));
    auto row = [&](const char* name, std::vector<double> v) {
      t.Row({name, Fmt("%.3f", Percentile(v, 0.0)),
             Fmt("%.3f", Percentile(v, 0.5)),
             Fmt("%.3f", Percentile(v, 0.95)),
             Fmt("%.3f", Percentile(v, 1.0))});
    };
    std::printf("round %d:\n", round + 1);
    row("write", write);
    row("wait", wait);
    row("read", read);
  }
  // Lower bound vs actual (the paper's "fastest worker" line).
  double fastest_total = Percentile(r.total_s, 0.0);
  double slowest_total = Percentile(r.total_s, 1.0);
  double sum_fastest_phases = 0;
  for (int round = 0; round < 2; ++round) {
    double w = 1e300, rd = 1e300;
    for (const auto& m : r.metrics) {
      if (static_cast<size_t>(round) >= m.rounds.size()) continue;
      w = std::min(w, m.rounds[round].partition_s + m.rounds[round].write_s);
      rd = std::min(rd, m.rounds[round].read_s);
    }
    sum_fastest_phases += w + rd;
  }
  double total_wait = 0, total_time = 0;
  for (const auto& m : r.metrics) {
    for (const auto& round : m.rounds) total_wait += round.wait_s;
  }
  for (double t : r.total_s) total_time += t;
  std::printf("\n");
  Notef("fastest worker end-to-end: %s (%.0f%% of slowest %s)",
        FormatSeconds(fastest_total).c_str(),
        100.0 * fastest_total / slowest_total,
        FormatSeconds(slowest_total).c_str());
  Notef("sum of fastest phases (lower bound): %s",
        FormatSeconds(sum_fastest_phases).c_str());
  Notef("share of worker time spent waiting: %.0f%%",
        100.0 * total_wait / total_time);
}

}  // namespace

int main() {
  Banner("Figure 13", "TwoLevelExchange break-down and stragglers");
  auto small = RunBreakdown(1250, 1e12);
  Describe("1 TB, 1250 workers", small);
  auto big = RunBreakdown(2500, 3e12);
  Describe("3 TB, 2500 workers", big);
  std::printf(
      "\nPaper: on 1 TB the fastest worker takes ~85%% of the slowest and\n"
      "is close to the lower bound; on 3 TB more than half of the\n"
      "execution is stragglers and waiting — slow writers delay their\n"
      "whole group, and the delays propagate into round 2.\n");
  return 0;
}
