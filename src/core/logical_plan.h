#ifndef LAMBADA_CORE_LOGICAL_PLAN_H_
#define LAMBADA_CORE_LOGICAL_PLAN_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataflow.h"
#include "core/plan.h"

namespace lambada::core {

// ---------------------------------------------------------------------------
// The logical plan IR
// ---------------------------------------------------------------------------
// Both frontends — the SQL layer and the Query builder — lower into this
// representation before any physical decision is made: an n-ary join graph
// (one driving relation plus one build relation per equi-join edge) with
// the query's predicates lifted out of operator order. The optimizer
// (core/optimizer.h) works exclusively on this IR: it attributes filters
// to relations, orders the join edges, picks an exchange strategy per
// edge, and only then emits the physical PlanFragment. The linear Query
// op chain is thus *syntax*; this IR is the first form where the join
// graph is explicit.

/// One base relation of the join graph: an input glob plus the row-wise
/// ops the query applies to it before any join (Filter/Map/Select only).
struct LogicalRelation {
  std::string pattern;
  std::vector<PlanOp> ops;
};

/// One equi-join edge. The probe side is whatever the driving relation
/// has accumulated by the time the edge executes; probe_keys may name
/// columns of the driving relation or of an earlier edge's build output.
struct LogicalJoinEdge {
  /// Index of the build relation in LogicalPlan::relations (>= 1).
  size_t build_relation = 1;
  std::vector<std::string> probe_keys;
  std::vector<std::string> build_keys;
  engine::JoinType type = engine::JoinType::kInner;
  /// User-supplied exchange template (levels, buckets, combining).
  ExchangeSpec exchange;
};

struct LogicalPlan {
  /// relations[0] is the driving (probe) relation; one more per edge.
  std::vector<LogicalRelation> relations;
  /// Join edges in syntax order (the optimizer may reorder them).
  std::vector<LogicalJoinEdge> joins;
  /// Filters the query states between or after joins, floated out of
  /// operator order: the optimizer pushes them into relations where it
  /// can and re-places the rest at the earliest join prefix that
  /// provides their columns.
  std::vector<engine::ExprPtr> filters;
  /// Ordered Map/Select/Filter tail applied after the last join and all
  /// floated filters (a Filter lands here instead of `filters` once a
  /// Map/Select precedes it — it may read a derived column).
  std::vector<PlanOp> tail;
  /// Terminal aggregate, if any.
  std::optional<PlanOp> aggregate;
  /// Driver-scope filters applied to the finalized aggregate (HAVING).
  std::vector<PlanOp> having;
};

/// Lowers a Query into the IR. A join-free query is a plan with zero join
/// edges: its row ops up to the first explicit exchange land in
/// relations[0].ops, the rest of the chain in `tail`. For join queries
/// this validates the shape the optimizer supports: row ops only before
/// the first join and on build sides, filters-only between joins, no
/// explicit exchanges. Either way the aggregate must be terminal up to
/// trailing HAVING filters.
Result<LogicalPlan> BuildLogicalPlan(const Query& query);

// ---------------------------------------------------------------------------
// Rewrite helpers of the optimizer
// ---------------------------------------------------------------------------

/// Columns required by one op (its own expressions; a kJoin contributes
/// its probe keys — the build side is planned separately).
void CollectOpColumns(const PlanOp& op, std::set<std::string>* cols);

/// Names of columns *introduced* by an op (Map/Select/Aggregate outputs):
/// these must not be pushed into the scan projection.
void CollectOpOutputs(const PlanOp& op, std::set<std::string>* produced);

/// Folds the leading kFilter run of ops[*first_kept..] into one pushed-down
/// scan predicate and advances *first_kept past it.
engine::ExprPtr FoldLeadingFilters(const std::vector<PlanOp>& ops,
                                   size_t* first_kept);

/// The closed output-column set of a row-op run, if any: a Select closes
/// the set to its names, later Maps extend it; without a Select the set
/// stays open (nullopt — the scan's columns flow through).
std::optional<std::set<std::string>> ClosedOutputSet(
    const std::vector<PlanOp>& ops);

/// Join keys must survive their side's pipeline: catching a key dropped
/// by a Select at plan time saves launching a fleet that can only fail in
/// the exchange.
Status ValidateKeysSurvive(const std::optional<std::set<std::string>>& closed,
                           const std::vector<std::string>& keys,
                           const char* side);

/// Plans the build side of a join: filter/projection push-down into the
/// build scan, and the build exchange keyed on build_keys. Returns the set
/// of columns the build side is known to emit, or nullopt when that set is
/// open (no terminal Select) — the caller then cannot attribute post-join
/// column references to a side and must scan conservatively.
Result<std::optional<std::set<std::string>>> PlanBuildSide(JoinSpec* join);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_LOGICAL_PLAN_H_
