// Per-layer accounting: what each module did for a set of queries, read
// from its public surface (QueryReport, its fleet registry, the cost
// ledger delta, the span tree) and folded into per-query means.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "harness.h"
#include "obs/metrics.h"

namespace lambada::benchmark {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void MetricSink::Print() const {
  for (const Row& r : rows_) {
    std::printf("%s %.17g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
}

void Drain(sim::Simulator* sim, SimStats* stats) {
  for (;;) {
    stats->peak_pending = std::max(stats->peak_pending, sim->pending_events());
    if (!sim->Step()) break;
    ++stats->events;
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Ledger::Get(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

void Ledger::AddQuery(const core::QueryReport& r, double t_start) {
  const cloud::CostSnapshot& c = r.cost;
  // cloud/faas + core/invocation_tree: only first attempts define how
  // long the fleet took to start; re-invocations come much later.
  double first_start = std::numeric_limits<double>::infinity();
  double last_start = -first_start;
  int64_t cold = 0;
  for (const cloud::WorkerMetrics& m : r.worker_metrics) {
    if (m.cold_start) ++cold;
    if (m.attempt != 0) continue;
    first_start = std::min(first_start, m.handler_start);
    last_start = std::max(last_start, m.handler_start);
  }
  Add("faas.invocations", static_cast<double>(c.lambda_invocations));
  Add("faas.cold_starts", static_cast<double>(cold));
  Add("faas.gib_s", c.lambda_gib_seconds);
  if (last_start >= first_start) {
    Add("faas.all_running_s", last_start - t_start);
    Add("faas.start_skew_s", last_start - first_start);
  }
  Add("driver.invoke_issue_s", r.invocation_issue_s);
  Add("driver.tree_depth", r.tree_depth);
  Add("driver.workers", r.workers);

  // cloud/fault + driver mitigation.
  Add("driver.attempts", static_cast<double>(r.total_attempts));
  Add("driver.reinvoked_workers", r.reinvoked_workers);
  Add("driver.subtree_reinvocations", r.subtree_reinvocations);
  Add("driver.duplicate_results", static_cast<double>(r.duplicate_results));
  Add("s3.retries", static_cast<double>(r.worker_s3_retries));
  Add("s3.hedged_requests", static_cast<double>(r.hedged_gets));
  Add("s3.hedge_wins", static_cast<double>(r.hedge_wins));
  const bool clean = r.total_attempts == r.workers && r.duplicate_results == 0;
  Add("fleet.clean_queries", clean ? 1 : 0);

  // format/compress/engine-scan, exchange, join: the fleet registry.
  using obs::Metric;
  for (Metric m :
       {Metric::kScanFiles, Metric::kRowsScanned, Metric::kRowsEmitted,
        Metric::kRowGroupsTotal, Metric::kRowGroupsPruned,
        Metric::kRowsDictFiltered, Metric::kScanGetRequests,
        Metric::kScanBytesMoved, Metric::kExchangeRounds,
        Metric::kExchangePutRequests, Metric::kExchangeGetRequests,
        Metric::kExchangeListRequests, Metric::kExchangeBytesWritten,
        Metric::kExchangeBytesRead, Metric::kRowsJoined}) {
    Add(obs::DefOf(m).name, static_cast<double>(r.fleet_metrics.counter(m)));
  }
  for (const core::JoinChoice& j : r.join_choices) {
    Add("optimizer.broadcast_joins", j.broadcast ? 1 : 0);
  }

  // Services, from the query's bill.
  Add("s3.get_requests", static_cast<double>(c.s3_get_requests));
  Add("s3.put_requests", static_cast<double>(c.s3_put_requests));
  Add("s3.list_requests", static_cast<double>(c.s3_list_requests));
  Add("s3.bytes_read", static_cast<double>(c.s3_bytes_read));
  Add("s3.bytes_written", static_cast<double>(c.s3_bytes_written));
  Add("s3.shared_get_requests", c.s3_shared_get_requests);
  Add("sqs.requests", static_cast<double>(c.sqs_requests));
  Add("ddb.reads", static_cast<double>(c.ddb_reads));
  Add("ddb.writes", static_cast<double>(c.ddb_writes));
}

void Ledger::AddTrace(const obs::Tracer& tracer, bool worker_spans) {
  const std::vector<obs::Tracer::Span>& spans = tracer.spans();
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent - 1].push_back(i);
  }
  auto self_time = [&](size_t i) {
    const obs::Tracer::Span& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (size_t k : children[i]) {
      if (spans[k].end < 0) continue;
      const double a = std::max(spans[k].start, s.start);
      const double b = std::min(spans[k].end, s.end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double run_a = 0;
    double run_b = -1;
    for (const auto& [a, b] : cover) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    return (s.end - s.start) - covered;
  };

  // The critical worker: the last worker attempt to finish before the
  // query did. Losing duplicate attempts may end later; they are not on
  // the path the driver waited for.
  const double query_end = spans.empty() ? 0 : spans[0].end;
  size_t crit = spans.size();
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Tracer::Span& s = spans[i];
    if (s.cat != "worker" || s.name != "worker" || s.end < 0) continue;
    if (s.end > query_end) continue;
    if (crit == spans.size() || s.end > spans[crit].end) crit = i;
  }
  // Children are created after their parents, so one forward sweep marks
  // the critical worker's whole subtree.
  std::vector<char> on_crit(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    on_crit[i] = i == crit ||
                 (spans[i].parent != 0 && on_crit[spans[i].parent - 1]);
  }

  Add("trace.spans", static_cast<double>(spans.size()));
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Tracer::Span& s = spans[i];
    if (s.end < 0) {
      Add("trace.open_spans", 1);
      continue;
    }
    if (s.cat == "driver") {
      if (s.name != "query") Add("driver." + s.name + "_s", s.end - s.start);
      continue;
    }
    if (!worker_spans) continue;
    worker_spans_ = true;
    const std::string key = s.cat + "." + s.name + ".self_s";
    const double self = self_time(i);
    Add(key, self);
    if (on_crit[i]) Add("crit." + key, self);
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void Ledger::Emit(int64_t queries, MetricSink* out) const {
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  auto mean = [&](const std::string& name, const std::string& unit) {
    out->Set(name, Get(name) / n, unit);
  };

  mean("faas.invocations", "count");
  mean("faas.cold_starts", "count");
  mean("faas.gib_s", "GiB.s");
  mean("faas.all_running_s", "s");
  mean("faas.start_skew_s", "s");
  mean("driver.invoke_issue_s", "s");
  mean("driver.tree_depth", "levels");
  mean("driver.workers", "count");

  out->Set("driver.attempts_per_worker",
           Ratio(Get("driver.attempts"), Get("driver.workers")), "ratio");
  mean("driver.reinvoked_workers", "count");
  mean("driver.subtree_reinvocations", "count");
  mean("driver.duplicate_results", "count");
  mean("s3.retries", "count");
  mean("s3.hedged_requests", "count");
  out->Set("s3.hedge_win_ratio",
           Ratio(Get("s3.hedge_wins"), Get("s3.hedged_requests")), "ratio");
  mean("fault.injected_requests", "count");
  mean("fault.crashes_armed", "count");
  mean("fault.stragglers_armed", "count");
  mean("fault.invoker_crashes_armed", "count");
  out->Set("fleet.clean_query_share", Get("fleet.clean_queries") / n,
           "ratio");

  mean("scan.files", "count");
  mean("scan.rows_scanned", "rows");
  out->Set("scan.rows_emitted_ratio",
           Ratio(Get("scan.rows_emitted"), Get("scan.rows_scanned")), "ratio");
  out->Set("scan.row_groups_pruned_ratio",
           Ratio(Get("scan.row_groups_pruned"), Get("scan.row_groups_total")),
           "ratio");
  mean("scan.rows_dict_filtered", "rows");
  mean("scan.get_requests", "count");
  mean("scan.bytes_moved", "bytes");

  mean("exchange.rounds", "count");
  mean("exchange.put_requests", "count");
  mean("exchange.get_requests", "count");
  mean("exchange.list_requests", "count");
  mean("exchange.bytes_written", "bytes");
  mean("exchange.bytes_read", "bytes");
  mean("join.rows", "rows");
  mean("optimizer.broadcast_joins", "count");

  mean("s3.get_requests", "count");
  mean("s3.put_requests", "count");
  mean("s3.list_requests", "count");
  mean("s3.bytes_read", "bytes");
  mean("s3.bytes_written", "bytes");
  mean("s3.shared_get_requests", "count");
  mean("sqs.requests", "count");
  mean("ddb.reads", "count");
  mean("ddb.writes", "count");

  out->Set("meta_cache.hit_ratio",
           Ratio(Get("meta_cache.hits"),
                 Get("meta_cache.hits") + Get("meta_cache.misses")),
           "ratio");
  out->Set("shared_scan.attach_ratio",
           Ratio(Get("shared_scan.attaches"),
                 Get("shared_scan.attaches") + Get("shared_scan.fetches")),
           "ratio");
  mean("shared_scan.rearms", "count");
  out->Set("serving.admission_wait_p50_s", Get("serving.admission_wait_p50_s"),
           "s");
  out->Set("serving.admission_wait_p90_s", Get("serving.admission_wait_p90_s"),
           "s");
  out->Set("serving.queued_share", Get("serving.queued") / n, "ratio");
  out->Set("serving.rejected_share", Get("serving.rejected") / n, "ratio");
}

void Ledger::EmitTrace(int64_t queries, MetricSink* out) const {
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  auto mean = [&](const std::string& name, const std::string& unit) {
    out->Set(name, Get(name) / n, unit);
  };
  for (const char* phase :
       {"plan", "upload-plan", "upload-inputs", "invoke", "collect", "merge"}) {
    mean(std::string("driver.") + phase + "_s", "s");
  }
  // Every worker-side span name of docs/OBSERVABILITY.md, keyed by
  // category (scan.get and exchange.get are different layers).
  static const char* const kWorkerSpans[] = {
      "worker.worker",     "worker.invoke-children", "worker.fetch-plan",
      "worker.send-result", "scan.scan",             "scan.scan-build",
      "scan.rowgroup",     "scan.get",               "scan.decode",
      "scan.dict-filter",  "exchange.exchange",      "exchange.round",
      "exchange.partition", "exchange.put",          "exchange.get",
      "exchange.barrier",  "join.join"};
  if (worker_spans_) {
    for (const char* span : kWorkerSpans) {
      mean(std::string(span) + ".self_s", "s");
    }
    for (const char* span : kWorkerSpans) {
      mean(std::string("crit.") + span + ".self_s", "s");
    }
  }
  mean("trace.spans", "count");
  mean("trace.open_spans", "count");
}

}  // namespace lambada::benchmark
