// Reproduces Figure 11 of the paper: the distribution of per-worker
// processing time for TPC-H Q1 and Q6 (F=1, M=1792 MiB). Workers whose
// row groups are fully pruned by the min/max statistics on l_shipdate
// return after the metadata round trip (100-200 ms); the others decompress
// and scan their projected columns (2-3 s).

#include "bench_util.h"
#include "cloud/cloud.h"
#include "core/driver.h"
#include "workload/tpch.h"

using namespace lambada;        // NOLINT
using namespace lambada::bench; // NOLINT

namespace {

struct Distribution {
  std::vector<double> processing_s;  // Sorted ascending.
  int64_t pruned = 0, total = 0;
  int64_t bytes_moved = 0;  // Post-encoding scan bytes across the fleet.
  int64_t rows_dict_filtered = 0;
};

Distribution RunQuery(core::Driver& driver, const core::Query& q) {
  core::RunOptions opts;
  opts.memory_mib = 1792;
  opts.files_per_worker = 1;
  auto report = driver.RunToCompletion(q, opts);
  LAMBADA_CHECK(report.ok()) << report.status().ToString();
  using obs::Metric;
  Distribution d;
  for (const auto& wr : report->worker_results) {
    d.processing_s.push_back(wr.metrics.gauge(Metric::kProcessingTime));
  }
  const obs::MetricsRegistry& fleet = report->fleet_metrics;
  d.pruned = fleet.counter(Metric::kRowGroupsPruned);
  d.total = fleet.counter(Metric::kRowGroupsTotal);
  d.bytes_moved = fleet.counter(Metric::kScanBytesMoved);
  d.rows_dict_filtered = fleet.counter(Metric::kRowsDictFiltered);
  std::sort(d.processing_s.begin(), d.processing_s.end());
  return d;
}

void Describe(const char* name, const Distribution& d) {
  std::printf("\n");
  Notef("%s: %zu workers, %lld/%lld row groups pruned (%.0f%%)", name,
        d.processing_s.size(), static_cast<long long>(d.pruned),
        static_cast<long long>(d.total), 100.0 * d.pruned / d.total);
  Notef("scan bytes moved (post-encoding): %.2f MiB across the fleet; "
        "%lld rows dict-filtered pre-materialization",
        static_cast<double>(d.bytes_moved) / kMiB,
        static_cast<long long>(d.rows_dict_filtered));
  Table t({"percentile", "processing time [s]"},
          Table::kDefaultWidth + 6, std::string(name));
  for (double p : {0.0, 0.05, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    t.Row({Fmt("p%.0f", p * 100),
           Fmt("%.3f", Percentile(d.processing_s, p))});
  }
  // Count the two worker categories of the paper.
  int fast = 0;
  for (double s : d.processing_s) {
    if (s < 0.5) ++fast;
  }
  Notef("workers returning after metadata only: %d of %zu (%.0f%%)", fast,
        d.processing_s.size(), 100.0 * fast / d.processing_s.size());
}

}  // namespace

int main() {
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = 400;
  cloud::Cloud cloud(cfg);
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());
  workload::LoadOptions load;
  load.num_rows = 320 * 400;
  load.num_files = 320;
  load.row_groups_per_file = 4;
  load.virtual_bytes_per_file = 500 * kMB;
  LAMBADA_CHECK_OK(
      workload::LoadLineitem(&cloud.s3(), "tpch", "sf1000/", load));

  Banner("Figure 11", "per-worker processing time distribution (Q1 vs Q6)");
  auto q1 = RunQuery(driver, workload::TpchQ1("s3://tpch/sf1000/*.lpq"));
  Describe("Q1 (98% selected, 7 attributes)", q1);
  auto q6 = RunQuery(driver, workload::TpchQ6("s3://tpch/sf1000/*.lpq"));
  Describe("Q6 (2% selected, 4 attributes)", q6);
  std::printf(
      "\nPaper: two categories — ~100-200 ms (all row groups pruned via\n"
      "min/max on l_shipdate) and 2-3 s (full scan of projected columns);\n"
      "~2%% of Q1 workers prune everything vs ~80%% for Q6.\n");
  return 0;
}
