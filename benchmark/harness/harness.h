#ifndef LAMBADA_BENCHMARK_HARNESS_H_
#define LAMBADA_BENCHMARK_HARNESS_H_

// The repository benchmark harness: four workloads (scan, join, fleet,
// serve) that drive the public surfaces of the engine — Driver::Run,
// QueryService::Submit, the CostLedger, QueryReport, the fault injector and
// the span tree — and step the simulator from the outside so the event
// loop itself can be counted. Nothing in src/ is instrumented for it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace lambada::benchmark {

/// Process CPU seconds: the host clock of every host-side metric. The
/// harness is single-threaded, and CPU time at least excludes the time it
/// spends descheduled; other tenants of a shared machine still slow it
/// down (benchmark/README.md, "Noise").
double CpuSeconds();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Run size. Every workload derives its query count from it (and only
  /// from it) so that one run takes about this long on a quiet 4-vCPU
  /// machine, and a (workload, seed, seconds) triple always runs the same
  /// queries: its modeled metrics repeat exactly.
  double seconds = 20;
  bool trace = false;
  /// Pre-flight size: four queries per workload, two serve rates.
  bool smoke = false;
};

/// Named metrics in insertion order, printed as "<name> <value> <unit>".
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    rows_.push_back(Row{name, value, unit});
  }
  void Print() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Simulator event accounting, measured from outside the event loop.
struct SimStats {
  int64_t events = 0;
  size_t peak_pending = 0;
};

/// Steps `sim` until it is idle, counting every event.
void Drain(sim::Simulator* sim, SimStats* stats);

/// Per-layer accounting for a set of queries: additive raw quantities by
/// name, folded into per-query means and ratios by Emit.
class Ledger {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  double Get(const std::string& name) const;

  /// Accounts one finished query. `t_start` is the virtual time its
  /// Driver::Run began.
  void AddQuery(const core::QueryReport& report, double t_start);

  /// Folds a query's span tree into virtual-time self times: a span's
  /// duration minus the union of its children's intervals. Driver phases
  /// add their full duration (they run back to back on the critical
  /// path). With `worker_spans`, worker-side spans add fleet-summed self
  /// time under "<cat>.<name>.self_s" and, for the last worker to finish,
  /// under "crit.<cat>.<name>.self_s".
  void AddTrace(const obs::Tracer& tracer, bool worker_spans);

  /// Emits every counter-based per-layer metric as a per-query mean (or a
  /// ratio) over `queries` queries.
  void Emit(int64_t queries, MetricSink* out) const;
  /// Emits the span-derived metrics AddTrace accumulated.
  void EmitTrace(int64_t queries, MetricSink* out) const;

 private:
  std::map<std::string, double> sums_;
  bool worker_spans_ = false;
};

/// One query as the harness saw it.
struct QueryOutcome {
  std::string kind;  ///< "Q1", "Q3", "Q6", "Q12".
  bool ok = false;
  double latency_s = 0;  ///< Virtual; from submission (serve: due time).
  double cost_usd = 0;
  std::vector<uint8_t> bytes;  ///< engine::SerializeChunk of the result.
};

/// One pass of a workload's seeded query sequence.
struct Pass {
  std::vector<QueryOutcome> queries;
  Ledger ledger;
  SimStats sim;
  double cpu_s = 0;  ///< Host CPU of the whole pass.
  /// Result mismatches and missed purposes; empty when all checks held.
  std::vector<std::string> violations;
  /// serve only: the rate sweep, one point per offered rate (q/s).
  struct RatePoint {
    double rate = 0;
    double p90_s = 0;
    int64_t arrivals = 0;
    int64_t failures = 0;
  };
  std::vector<RatePoint> sweep;
};

/// Host CPU seconds of each set-up step.
struct SetupTimes {
  double generate_s = 0;
  double load_s = 0;
  double install_s = 0;
  double stored_bytes = 0;  ///< Modeled bytes of every loaded table.
  double total() const { return generate_s + load_s + install_s; }
};

/// A benchmark workload. Setup builds a fresh deployment from the seed
/// (generate -> encode/upload -> install); Run executes the seeded query
/// sequence on the most recent deployment and checks every result.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual SetupTimes Setup() = 0;
  /// Computes the reference results from the generated tables (the
  /// checker's cost, kept out of the set-up time).
  virtual void ComputeReferences() = 0;
  virtual Pass Run(bool trace) = 0;
};

/// Creates the named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

/// Percentile by linear interpolation between closest ranks (q in [0,1]).
double Percentile(std::vector<double> values, double q);

}  // namespace lambada::benchmark

#endif  // LAMBADA_BENCHMARK_HARNESS_H_
