#ifndef LAMBADA_CORE_DATAFLOW_H_
#define LAMBADA_CORE_DATAFLOW_H_

#include <string>
#include <vector>

#include "core/plan.h"
#include "engine/aggregate.h"
#include "engine/expr.h"

namespace lambada::core {

/// The user-facing dataflow builder, the C++ analogue of the paper's
/// Python frontend (Listing 1):
///
///   auto q = Query::FromParquet("s3://bucket/*.lpq")
///                .Filter(Col("x") >= Lit(0.05))
///                .Map(Col("x") * Col("y"), "v")
///                .ReduceSum("v");
///
/// A query is a linear chain of logical operators rooted at a scan.
/// OptimizeQuery (optimizer.h), the one planner for queries with and
/// without joins, turns it into a scan with pushed-down selection and
/// projection plus a worker pipeline and a driver-side merge step.
class Query {
 public:
  /// Starts a query over all files matching the glob `pattern`
  /// (e.g. "s3://bucket/data/*.lpq").
  static Query FromParquet(std::string pattern);

  /// Keeps rows satisfying `predicate`.
  Query Filter(engine::ExprPtr predicate) const;

  /// Appends a computed column named `name`.
  Query Map(engine::ExprPtr expr, std::string name) const;

  /// Narrows to the given computed columns.
  Query Select(std::vector<engine::ExprPtr> exprs,
               std::vector<std::string> names) const;

  /// Repartitions rows across workers by hash of `keys` using the
  /// serverless exchange operator; `spec` sets its levels and buckets.
  Query Repartition(std::vector<std::string> keys,
                    ExchangeSpec spec = ExchangeSpec()) const;

  /// Hash-joins this query (the probe side) with `build` on
  /// probe_keys[i] == build_keys[i]. The planner partitions both sides
  /// through the serverless exchange on their keys, so the join executes
  /// co-partitioned on every worker; `exchange` is the template for both
  /// sides (levels and buckets — its keys are ignored).
  /// The inner-join output carries the probe columns plus the non-key
  /// build columns: the build keys are dropped (equal to the probe keys
  /// by definition), so downstream ops must reference the probe name.
  /// `build` must be a pipeline of Filter/Map/Select over its own scan.
  /// Ending it with an explicit Select is recommended: a closed build
  /// column set is what lets the planner push precise projections into
  /// both scans.
  Query JoinWith(const Query& build, std::vector<std::string> probe_keys,
                 std::vector<std::string> build_keys,
                 engine::JoinType type = engine::JoinType::kInner,
                 ExchangeSpec exchange = ExchangeSpec()) const;

  /// Grouped aggregation; must be the last operator if present.
  Query Aggregate(std::vector<std::string> group_by,
                  std::vector<engine::AggSpec> aggs) const;

  /// Convenience: global sum of one column (the reduce of Listing 1).
  Query ReduceSum(const std::string& column) const;
  /// Convenience: global row count.
  Query ReduceCount() const;

  /// Renders the physical plan this query compiles to as deterministic
  /// text (scan filters/projections, join order and per-join strategy
  /// decisions with modeled costs, aggregate, HAVING). Without a catalog
  /// the optimizer keeps the syntactic join order and partitioned
  /// exchanges; the driver's EXPLAIN output (QueryReport::explain_text)
  /// shows the choices made with real statistics.
  Result<std::string> Explain() const;

  const std::string& pattern() const { return pattern_; }
  const std::vector<PlanOp>& ops() const { return ops_; }

 private:
  explicit Query(std::string pattern) : pattern_(std::move(pattern)) {}
  Query WithOp(PlanOp op) const;

  std::string pattern_;
  std::vector<PlanOp> ops_;
};

}  // namespace lambada::core

#endif  // LAMBADA_CORE_DATAFLOW_H_
