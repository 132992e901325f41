// Reproduces Table 3 of the paper: running time of S3-based exchange
// operators on a 100 GB dataset for 250/500/1000 workers, next to the
// published numbers of Pocket (VM-based and S3 baselines) and Locus.
// Also runs the 1 TB and 3 TB configurations reported in the text.

#include <memory>

#include "bench_util.h"
#include "cloud/cloud.h"
#include "core/exchange.h"
#include "engine/table.h"

using namespace lambada;        // NOLINT
using namespace lambada::bench; // NOLINT
using sim::Async;

namespace {

/// Runs a two-level write-combining exchange of `total_bytes` over P
/// workers; returns the end-to-end running time (all workers done).
double RunExchangeAtScale(int P, double total_bytes, int memory_mib,
                          int num_buckets = 32) {
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = P + 64;
  cloud::Cloud cloud(cfg);
  core::ExchangeSpec spec;
  spec.keys = {"k"};
  spec.levels = 2;
  spec.num_buckets = num_buckets;
  spec.exchange_id = "tab3";
  LAMBADA_CHECK_OK(core::CreateExchangeBuckets(&cloud.s3(), spec));

  auto schema = std::make_shared<engine::Schema>(std::vector<engine::Field>{
      {"k", engine::DataType::kInt64}, {"v", engine::DataType::kFloat64}});
  const int kRealRows = 2000;
  const double real_bytes_per_worker = kRealRows * 16.0;
  const double scale =
      total_bytes / P / real_bytes_per_worker;  // Virtual scaling.

  double finished_at = 0;
  int done = 0;
  cloud::FunctionConfig fn;
  fn.name = "xchg";
  fn.memory_mib = memory_mib;
  fn.timeout_s = 900;
  fn.handler = [&, schema, scale](cloud::WorkerEnv& env,
                                  std::string payload) -> Async<Status> {
    int p = std::stoi(payload);
    env.data_scale = scale;
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int64_t> keys(kRealRows);
    std::vector<double> vals(kRealRows);
    for (int i = 0; i < kRealRows; ++i) {
      keys[i] = rng.UniformInt(0, 1 << 30);
      vals[i] = rng.NextDouble();
    }
    engine::TableChunk input(
        *&schema, {engine::Column::Int64(std::move(keys)),
                   engine::Column::Float64(std::move(vals))});
    auto out = co_await core::RunExchange(env, spec, p, P, std::move(input));
    if (!out.ok()) co_return out.status();
    ++done;
    finished_at = env.sim()->Now();
    co_return Status::OK();
  };
  LAMBADA_CHECK_OK(cloud.faas().CreateFunction(fn));
  // Start all workers near-simultaneously (the exchange is an operator
  // inside an already-running query; invocation is not part of Table 3).
  for (int p = 0; p < P; ++p) {
    sim::Spawn([](cloud::Cloud* c, int worker) -> Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "xchg",
                                std::to_string(worker));
    }(&cloud, p));
  }
  double t0 = 0.5;  // Invocations land within the first ~0.5 s.
  cloud.sim().Run();
  LAMBADA_CHECK_EQ(done, P);
  return finished_at - t0;
}

}  // namespace

int main() {
  Banner("Table 3", "running time of S3-based exchange on 100 GB");
  Table t({"system", "workers", "storage", "time [s]"}, 16);
  t.Row({"Pocket [18]", "250", "VMs", "58"});
  t.Row({"Pocket [18]", "500", "VMs", "28"});
  t.Row({"Pocket [18]", "1000", "VMs", "18"});
  t.Row({"Pocket base", "250", "S3", "98"});
  // The published Locus range becomes two rows so both edges diff
  // numerically.
  t.Row({"Locus [21] fast", "dynamic", "VMs+S3", "80"});
  t.Row({"Locus [21] slow", "dynamic", "VMs+S3", "140"});
  for (int P : {250, 500, 1000}) {
    double s = RunExchangeAtScale(P, 100e9, 2048);
    t.Row({"Lambada", FmtInt(P), "S3", Fmt("%.0f", s)});
  }
  std::printf("\nPaper: Lambada 22 s / 15 s / 13 s — 5x faster than the\n"
              "S3 baseline at 250 workers and faster than Pocket-on-VMs\n"
              "at every scale, with no always-on infrastructure.\n");

  Banner("Section 5.5", "larger datasets");
  Table t2({"dataset", "workers", "time [s]"}, 16);
  {
    double s1 = RunExchangeAtScale(1250, 1e12, 2048);
    t2.Row({"1 TB", "1250", Fmt("%.0f", s1)});
    double s3 = RunExchangeAtScale(2500, 3e12, 2048);
    t2.Row({"3 TB", "2500", Fmt("%.0f", s3)});
  }
  std::printf(
      "\nPaper: 56 s on 1 TB with 1250 workers; 159 s on 3 TB with 2500\n"
      "workers (dominated by stragglers and waiting; see Figure 13).\n");
  return 0;
}
