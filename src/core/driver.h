#ifndef LAMBADA_CORE_DRIVER_H_
#define LAMBADA_CORE_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "core/dataflow.h"
#include "core/messages.h"
#include "core/optimizer.h"
#include "engine/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/async.h"

namespace lambada::cloud {
class MetadataCache;
}  // namespace lambada::cloud

namespace lambada::core {

/// Driver-side configuration (Section 3.1: "the driver runs on the local
/// development machine of the data scientist").
struct DriverOptions {
  /// Bucket holding plans and spilled results; created at install time.
  std::string system_bucket = "lambada-system";
  /// SQS queue the workers report to.
  std::string result_queue = "lambada-results";
  /// Functions are named "{function_prefix}{memory_mib}".
  std::string function_prefix = "lambada-w";
  /// Invocation-tree depth (Section 4.2, generalized): 0 picks the depth
  /// with the best modeled all-running time from the fleet size and the
  /// invoker profile (core/invocation_tree.h) — fleets of <= 4 workers
  /// stay driver-direct and two-level plans reproduce the historical sqrt
  /// grouping byte-for-byte; 1..3 force a depth, 1 being flat driver-only
  /// invocation. At every depth a payload carries its descendants'
  /// inputs, and the tree narrows (a shallower depth included) until its
  /// payloads fit the Invoke limit.
  int invocation_tree_depth = 0;
  double query_timeout_s = 3600.0;
  /// Default exchange buckets created at install.
  int exchange_buckets = 10;
  std::string exchange_bucket_prefix = "lambada-x";
  /// Serving mode (core/session_manager.h): each query collects results on
  /// its own SQS queue, since concurrent queries over one deployment would
  /// otherwise steal each other's messages. Off by default: a solo driver
  /// collects every query on `result_queue`.
  bool serving_mode = false;
  /// Optional warm metadata cache consulted for driver-side LISTs
  /// (serving mode; see docs/SERVING.md).
  cloud::MetadataCache* meta_cache = nullptr;
};

/// Straggler and crash mitigation policy of the driver's result-wait
/// loop. Disabled by default: the fault-free fast path then takes the
/// exact pre-mitigation schedule (no re-invocations, no extra draws).
/// Once half of the fleet has reported, each straggler gets a progress
/// deadline derived from the fleet's own pace: max(5 s, 3 x the time the
/// fleet took to reach that half).
struct MitigationOptions {
  bool enabled = false;
  /// Maximum invocation attempts per worker, including the first.
  int max_attempts = 3;
  /// With no new result for this long, every missing worker is re-invoked
  /// regardless of the quantile state (covers crashes before the quantile
  /// arms, e.g. a dead first-generation invoker).
  double stall_timeout_s = 30.0;
  /// Derive the arming quantile, the minimum straggler deadline and
  /// stall_timeout_s from the fleet's modeled start skew
  /// (models::TreeStartSkew) instead of the fixed values above: big trees
  /// take longer to merely start, so fixed values either fire on healthy
  /// deep fleets or sleep through dead branches. Off by default — the
  /// fixed values then apply unchanged.
  bool fleet_aware = false;
  /// Re-invoke a silent tree branch (no results from any worker in its
  /// claimed ID range) through its gen-1/gen-2 invoker with a fresh
  /// attempt id, instead of re-invoking every member individually — a
  /// lost branch costs one Invoke call and ~branch-size re-runs, never a
  /// fleet restart. First-result-wins dedup and attempt-stable exchange
  /// slice keys make the recovered branch byte-identical. Off by default.
  bool subtree_recovery = false;
};

/// Distributed-tracing knobs (docs/OBSERVABILITY.md). Tracing draws no
/// randomness, sleeps no virtual time, and creates spans in simulator
/// event order, so enabling it changes neither results nor modeled
/// latency/cost, and the rendered trace is byte-identical across
/// identical (workload, seed) runs.
/// The query's trace is QueryReport::trace; obs::Tracer::ChromeTraceJson
/// renders it for chrome://tracing or Perfetto.
struct TraceOptions {
  bool enabled = false;
};

/// Per-query execution knobs (the M and F of Section 5.2).
struct RunOptions {
  int memory_mib = 1792;
  /// Files per worker (F), at least 1. Ignored when num_workers > 0.
  int files_per_worker = 1;
  /// Explicit worker count; 0 derives it from the file count and F. Run
  /// rejects a negative count, or an F below 1, as Invalid.
  int num_workers = 0;
  /// Virtual-scaling factor forwarded to workers (DESIGN.md).
  double data_scale = 1.0;
  /// Consult the central min/max statistics index (core/stats_index.h)
  /// before fan-out, skipping files no worker needs to visit — the
  /// Section 5.3 extension. Join queries additionally feed the index's
  /// row counts and bounds to the cost-based optimizer as its catalog.
  bool use_stats_index = false;
  /// Per-join exchange strategy: kAuto lets the optimizer's cost model
  /// decide; the force settings exist for ablation benches.
  JoinStrategyOverride join_strategy = JoinStrategyOverride::kAuto;
  /// Straggler/crash mitigation (speculative re-invocation, progress
  /// deadlines, first-result-wins dedup).
  MitigationOptions mitigation;
  /// Workers hedge slow object-store GETs (duplicate request after the
  /// observed latency quantile, first response wins).
  bool hedge_gets = false;
  /// Query-scoped distributed tracing (off by default: zero overhead and
  /// bit-identical benches).
  TraceOptions trace;
  /// Per-query cost attribution ledger (serving mode). When set, every
  /// service request and worker-compute charge of this query is mirrored
  /// into it, and QueryReport::cost is its exact delta — the global-ledger
  /// snapshot diff is meaningless under concurrency.
  cloud::CostLedger* attribution = nullptr;
};

/// Everything the driver knows after a query: the result, end-to-end
/// latency, the pay-per-use bill, and per-worker telemetry.
struct QueryReport {
  engine::TableChunk result;
  double latency_s = 0;
  /// Time from Run() start until the last Invoke API call was issued.
  double invocation_issue_s = 0;
  int workers = 0;
  int files = 0;
  cloud::CostSnapshot cost;
  std::vector<ResultMessage> worker_results;
  /// Container-level timing (invocation, cold starts) per worker.
  std::vector<cloud::WorkerMetrics> worker_metrics;
  /// The optimizer's per-join strategy decisions (empty for a join-free
  /// query) and the deterministic plan rendering.
  std::vector<JoinChoice> join_choices;
  std::string explain_text;
  /// Fault-tolerance telemetry for imperfect runs. `total_attempts` counts
  /// invocation attempts across the fleet (== workers on a clean run);
  /// duplicates are at-least-once redeliveries (or superseded attempts)
  /// the dedup dropped; the s3/hedge counters are summed from the
  /// reporting attempt of each worker. Per-worker attempt timelines are
  /// in `worker_metrics` (WorkerMetrics::attempt).
  int64_t total_attempts = 0;
  int reinvoked_workers = 0;
  /// Branch re-invocations issued by subtree recovery; each restarted one
  /// silent gen-1/gen-2 subtree through its invoker.
  int subtree_reinvocations = 0;
  /// Invocation-tree depth this query ran with (1 = driver-direct).
  int tree_depth = 1;
  int64_t duplicate_results = 0;
  int64_t worker_s3_retries = 0;
  int64_t hedged_gets = 0;
  int64_t hedge_wins = 0;
  /// Fleet-wide metrics: the merge of every reporting worker's registry
  /// (the winning attempt of each worker under mitigation). Always
  /// populated, tracing or not.
  obs::MetricsRegistry fleet_metrics;
  /// The query's trace when RunOptions::trace.enabled; null otherwise.
  std::shared_ptr<obs::Tracer> trace;
  /// EXPLAIN ANALYZE rendering: the optimizer's plan annotated with what
  /// actually happened (rows, modeled bytes, exchange traffic, attempts,
  /// virtual time per operator). See core/analyze.h.
  std::string explain_analyze_text;

  /// Total USD for this query at the deployment's prices.
  double CostUsd(const cloud::Pricing& pricing) const {
    return cost.TotalUsd(pricing);
  }
};

/// The Lambada driver: installs the serverless components once, then runs
/// queries by fanning out workers and collecting their partial results.
class Driver {
 public:
  explicit Driver(cloud::Cloud* cloud, DriverOptions options = {});

  /// One-time setup (Figure 2 "installation"): system bucket, result
  /// queue, metadata table, exchange buckets. Free of recurring cost.
  Status Install();

  /// Ensures the worker function for this memory size exists.
  Status EnsureFunction(int memory_mib);

  /// Forces cold starts for the given memory size (the paper re-creates
  /// the function between configurations).
  void ResetWarm(int memory_mib);

  /// Compiles and executes `query`; resolves when the final result is
  /// merged on the driver. A query runs in five phases, each under its
  /// own driver span (docs/OBSERVABILITY.md): plan (list, optimize,
  /// prune, size the fleet, build its payloads and plan its invocation
  /// tree), upload (the plan fragment), invoke (the generation-1 roots),
  /// collect (the results, re-invoking stragglers, retried failures and
  /// silent branches under mitigation) and merge (driver-scope
  /// aggregation and HAVING).
  sim::Async<Result<QueryReport>> Run(const Query& query,
                                      const RunOptions& options);

  /// Convenience wrapper: spawns Run() and drives the simulation to
  /// completion (for tools and tests that are not themselves coroutines).
  Result<QueryReport> RunToCompletion(const Query& query,
                                      const RunOptions& options);

  const DriverOptions& options() const { return options_; }

 private:
  cloud::Cloud* cloud_;
  DriverOptions options_;
  bool installed_ = false;
};

}  // namespace lambada::core

#endif  // LAMBADA_CORE_DRIVER_H_
