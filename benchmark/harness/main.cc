// lambada_benchmark --workload <scan|join|fleet|serve> --seed <n>
//                   [--seconds <s>] [--trace <0|1>] [--smoke]
//
// Runs one workload in this process on one thread and prints every metric
// as "<name> <value> <unit>", ending with "correct", "attempted" and
// "failed". Exits 3 if any result was wrong or a workload missed its
// purpose (benchmark/README.md), 2 on bad arguments.
//
// A run sets the deployment up five times (set-up time is the median),
// computes the reference results, then runs the workload's seeded query
// sequence untraced. With --trace 1 it also sets up afresh and reruns the
// same sequence traced: the traced run must reproduce every latency and
// result byte, and yields the span-derived per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"

namespace lambada::benchmark {
namespace {

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      o->smoke = true;
    } else if (value == nullptr) {
      return false;
    } else if (arg == "--workload") {
      o->workload = value;
      ++i;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value, nullptr);
      ++i;
    } else if (arg == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
      ++i;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// serving.max_qps: the highest swept rate whose p90 stays within this
/// (virtual seconds) with no failed or refused query.
constexpr double kServeLatencyLimitS = 2.0;

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

int64_t Failed(const Pass& p) {
  int64_t n = 0;
  for (const QueryOutcome& q : p.queries) n += q.ok ? 0 : 1;
  return n;
}

/// The traced rerun must reproduce the untraced one exactly: tracing is an
/// observer and may not perturb the simulation.
void CompareTraced(const Pass& base, const Pass& traced,
                   std::vector<std::string>* problems) {
  if (base.queries.size() != traced.queries.size()) {
    problems->push_back("traced run has a different query count");
    return;
  }
  for (size_t i = 0; i < base.queries.size(); ++i) {
    const QueryOutcome& a = base.queries[i];
    const QueryOutcome& b = traced.queries[i];
    if (a.ok != b.ok || a.latency_s != b.latency_s || a.bytes != b.bytes) {
      problems->push_back("traced query " + std::to_string(i) + " (" + a.kind +
                          ") differs from the untraced run");
    }
  }
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s --workload <scan|join|fleet|serve> --seed <n> "
                 "[--seconds <s>] [--trace <0|1>] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(opts);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  // Chaos in `fleet` would otherwise log every crashed handler.
  SetLogLevel(LogLevel::kError);

  // One set-up suffices when smoke testing.
  std::vector<double> setup_total, generate, load, install;
  double stored_bytes = 0;
  for (int i = 0; i < (opts.smoke ? 1 : kSetups); ++i) {
    const SetupTimes t = workload->Setup();
    setup_total.push_back(t.total());
    generate.push_back(t.generate_s);
    load.push_back(t.load_s);
    install.push_back(t.install_s);
    stored_bytes = t.stored_bytes;
  }
  workload->ComputeReferences();

  const Pass base = workload->Run(false);
  std::vector<std::string> problems = base.violations;
  const int64_t n = static_cast<int64_t>(base.queries.size());
  int64_t attempted = n;
  int64_t failed = Failed(base);

  std::vector<double> latencies;
  std::vector<double> costs;
  double cost = 0;
  for (const QueryOutcome& q : base.queries) {
    if (!q.ok) continue;
    latencies.push_back(q.latency_s);
    costs.push_back(q.cost_usd);
    cost += q.cost_usd;
  }

  MetricSink out;
  // End to end. Modeled metrics are virtual seconds and USD; host metrics
  // are CPU seconds of this process.
  out.Set("latency_p50_s", Percentile(latencies, 0.5), "s");
  out.Set("latency_p90_s", Percentile(latencies, 0.9), "s");
  out.Set("latency_samples", static_cast<double>(latencies.size()), "count");
  // The median bill: in `join` the S3 PUT tail is Pareto with alpha 1.3,
  // whose variance is infinite, so the mean (printed as cost_mean_usd)
  // wanders from seed to seed far more than any bound could allow.
  out.Set("cost_per_query_usd", Percentile(costs, 0.5), "USD");
  out.Set("cost_mean_usd",
          costs.empty() ? 0 : cost / static_cast<double>(costs.size()), "USD");
  const double host_cpu =
      base.cpu_s / static_cast<double>(std::max<int64_t>(n, 1));
  out.Set("host_cpu_s_per_query", host_cpu, "s");
  out.Set("setup_s", Median(setup_total), "s");

  // Per layer.
  const double events_per_query = static_cast<double>(base.sim.events) /
                                  static_cast<double>(std::max<int64_t>(n, 1));
  out.Set("sim.events", events_per_query, "count");
  out.Set("sim.peak_pending", static_cast<double>(base.sim.peak_pending),
          "count");
  out.Set("sim.cpu_ns_per_event",
          events_per_query > 0 ? host_cpu * 1e9 / events_per_query : 0, "ns");
  base.ledger.Emit(n, &out);
  out.Set("setup.generate_s", Median(generate), "s");
  out.Set("setup.load_s", Median(load), "s");
  out.Set("setup.install_s", Median(install), "s");
  out.Set("setup.stored_bytes", stored_bytes, "bytes");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Set("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
          "MiB");

  if (opts.trace) {
    workload->Setup();
    const Pass traced = workload->Run(true);
    for (const std::string& v : traced.violations) problems.push_back(v);
    CompareTraced(base, traced, &problems);
    attempted += static_cast<int64_t>(traced.queries.size());
    failed += Failed(traced);
    traced.ledger.EmitTrace(static_cast<int64_t>(traced.queries.size()),
                            &out);
    out.Set("trace.host_cpu_ratio",
            base.cpu_s > 0 ? traced.cpu_s / base.cpu_s : 0, "ratio");
    double max_qps = 0;
    for (const Pass::RatePoint& p : traced.sweep) {
      attempted += p.arrivals;
      failed += p.failures;
      char name[64];
      std::snprintf(name, sizeof(name), "serving.rate_%g.p90_s", p.rate);
      out.Set(name, p.p90_s, "s");
      std::snprintf(name, sizeof(name), "serving.rate_%g.failures", p.rate);
      out.Set(name, static_cast<double>(p.failures), "count");
      if (p.p90_s <= kServeLatencyLimitS && p.failures == 0) {
        max_qps = std::max(max_qps, p.rate);
      }
    }
    out.Set("serving.max_qps", max_qps, "1/s");
  }

  out.Print();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("correct %d bool\n", problems.empty() ? 1 : 0);
  std::printf("attempted %lld count\n", static_cast<long long>(attempted));
  std::printf("failed %lld count\n", static_cast<long long>(failed));
  return problems.empty() ? 0 : 3;
}

}  // namespace
}  // namespace lambada::benchmark

int main(int argc, char** argv) { return lambada::benchmark::Main(argc, argv); }
