#ifndef LAMBADA_CORE_OPTIMIZER_H_
#define LAMBADA_CORE_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataflow.h"
#include "core/logical_plan.h"
#include "core/plan.h"
#include "engine/expr.h"
#include "models/costmodel.h"

namespace lambada::core {

// ---------------------------------------------------------------------------
// The cost-based planner: Query -> PhysicalQuery
// ---------------------------------------------------------------------------
// Every query is compiled here, with the classic rewrites the paper's
// framework performs on its intermediate representation (Section 3.2). The
// query is lowered into the logical plan IR (core/logical_plan.h) and
// emitted as a physical query. A join-free query is a plan with zero join
// edges: steps 2 and 3 have nothing to decide for it. In order:
//
//  1. **Selection placement.** Leading filters fold into the scan
//     predicate, where they both prune row groups via min/max statistics
//     and run as the residual predicate. Filters floated between/after
//     joins are pushed into the single relation whose columns they
//     reference (build sides of inner joins, or the driving relation);
//     OR-of-ANDs predicates additionally push their per-relation implied
//     disjunction (the Q19 rewrite) while the original stays as a
//     residual. Residuals re-enter the pipeline at the earliest join
//     prefix providing their columns.
//  2. **Join order.** With per-relation stats, join edges are enumerated
//     with dynamic programming over edge subsets (left-deep, up to six
//     edges; greedy beyond), minimizing summed modeled exchange traffic.
//     Feasibility tracks key provenance: an edge whose probe key is
//     emitted by another build relation must follow that edge. Exact cost
//     ties preserve the query's syntax order, so the optimizer is a no-op
//     when it has no information to act on.
//  3. **Exchange strategy.** Each join independently picks partitioned
//     (both sides traverse the hash exchange) or broadcast (every worker
//     reads the whole build relation; no exchange) by comparing modeled
//     traffic (models::PartitionedExchangeTraffic vs BroadcastTraffic).
//     Unknown stats or an unknown worker count fall back to partitioned.
//
// Projection push-down then runs over the assembled pipeline (only columns
// referenced downstream are read from storage), a terminal aggregate
// becomes worker-side partial aggregation plus a driver-side merge
// (trailing filters run in the driver scope: HAVING), and the whole plan
// is rendered into PhysicalQuery::explain_text.

/// One build relation a join query reads, in fragment join order (index ==
/// the join's build_ordinal). The driver expands the pattern and ships
/// per-worker build file lists: a contiguous split for a partitioned join,
/// the full list to every worker for a broadcast join.
struct BuildInput {
  std::string pattern;
  bool broadcast = false;
};

/// The optimizer's record of one join-strategy decision, surfaced for
/// reports, benches, and EXPLAIN. Costs are the modeled exchange-traffic
/// dollars of each alternative (0 when no stats were available and the
/// decision fell back to partitioned).
struct JoinChoice {
  std::string build_pattern;
  bool broadcast = false;
  /// Estimated inputs/output of this join (rows; 0 = unknown).
  double est_probe_rows = 0;
  double est_build_rows = 0;
  double est_output_rows = 0;
  /// Modeled traffic of the two alternatives.
  double partitioned_bytes = 0;
  double partitioned_usd = 0;
  double broadcast_bytes = 0;
  double broadcast_usd = 0;
};

/// The physical query: a serverless-scope fragment (executed by every
/// worker over its file subset) plus the driver-scope finalization
/// (Section 3.2).
struct PhysicalQuery {
  std::string pattern;          ///< Input file glob (probe side of a join).
  /// Build relations, one per kJoin op in fragment order; empty for a
  /// join-free query.
  std::vector<BuildInput> build_inputs;
  PlanFragment fragment;        ///< Worker-side plan.
  /// If the fragment ends in an aggregate, the driver merges partial
  /// states with these specs and finalizes; otherwise it concatenates the
  /// workers' row chunks.
  bool has_final_aggregate = false;
  std::vector<std::string> final_group_by;
  std::vector<engine::AggSpec> final_aggs;
  /// Driver-scope row ops applied to the finalized result (HAVING filters
  /// trailing the aggregate).
  std::vector<PlanOp> driver_ops;
  /// One entry per kJoin op (same order as build_inputs).
  std::vector<JoinChoice> join_choices;
  /// Deterministic plan rendering: the scan with its filter and projection
  /// (`scan probe=` when the plan joins), join order, per-join strategy
  /// decisions with both modeled costs, aggregate, HAVING. Backs
  /// Query::Explain() and SQL EXPLAIN.
  std::string explain_text;
};

/// Per-relation statistics the driver assembles before planning (from file
/// listings and the stats index). Zero/empty means unknown.
struct RelationStats {
  double rows = 0;      ///< Total rows across matched files.
  double bytes = 0;     ///< Total post-encoding bytes across matched files.
  int64_t files = 0;    ///< Matched file count.
  /// Min/max per column, where the stats index has them.
  std::map<std::string, engine::Interval> columns;
};

/// Everything the optimizer knows about base relations, keyed by the exact
/// input glob the query names. Missing entries mean "no stats": the
/// optimizer still plans, with byte-based fallbacks and partitioned joins.
struct Catalog {
  std::map<std::string, RelationStats> relations;
};

/// Forcing knob for experiments (the BENCH_join ablation): kAuto lets the
/// cost model decide per join.
enum class JoinStrategyOverride : uint8_t {
  kAuto = 0,
  kForcePartitioned = 1,
  kForceBroadcast = 2,
};

struct OptimizerOptions {
  /// Fleet size the query will run with; 0 = unknown (disables the
  /// broadcast alternative, whose cost scales with the worker count).
  int workers = 0;
  JoinStrategyOverride strategy = JoinStrategyOverride::kAuto;
};

/// Compiles a query into a physical plan (see file comment). Without a
/// catalog there is nothing to cost: joins keep the query's order and the
/// partitioned strategy.
Result<PhysicalQuery> OptimizeQuery(const Query& query,
                                    const Catalog& catalog = {},
                                    const OptimizerOptions& options = {});

/// Estimated fraction of rows satisfying `predicate`, given per-column
/// bounds and the relation's row count (both may be unknown). Conjunction
/// multiplies, disjunction adds with overlap correction, comparisons
/// against literals interpolate into the column's [min, max]; anything
/// unanalyzable contributes a fixed default. Exposed for tests.
double EstimateSelectivity(const engine::ExprPtr& predicate,
                           const std::map<std::string, engine::Interval>& cols,
                           double rows);

/// Resolves an adaptive chunk ("request") size from table statistics — the
/// Figure 7 tradeoff made into a rule. With one connection the request
/// latency is serial with the transfer, so chunks must reach ~16 MiB to
/// approach peak S3 bandwidth; k connections pipeline their first-byte
/// latencies and divide that requirement by k. Against that, requests
/// cost money and a worker scanning few post-encoding bytes gains nothing
/// from giant chunks, so the chunk also shrinks toward 1/8 of the bytes
/// one worker actually moves (keeping ~8 requests in flight to overlap
/// download with decompression), floored at 1 MiB where the request cost
/// line of Figure 7 starts to dominate the worker cost.
/// `scan_bytes_per_worker` <= 0 (unknown stats) yields the bandwidth-
/// saturating choice for the connection count.
int64_t AdaptiveChunkBytes(int64_t scan_bytes_per_worker, int connections);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_OPTIMIZER_H_
