#include "core/dataflow.h"

#include "core/optimizer.h"

namespace lambada::core {

Result<std::string> Query::Explain() const {
  ASSIGN_OR_RETURN(PhysicalQuery physical, OptimizeQuery(*this));
  return physical.explain_text;
}

Query Query::FromParquet(std::string pattern) {
  return Query(std::move(pattern));
}

Query Query::WithOp(PlanOp op) const {
  Query q = *this;
  q.ops_.push_back(std::move(op));
  return q;
}

Query Query::Filter(engine::ExprPtr predicate) const {
  PlanOp op;
  op.kind = PlanOp::Kind::kFilter;
  op.expr = std::move(predicate);
  return WithOp(std::move(op));
}

Query Query::Map(engine::ExprPtr expr, std::string name) const {
  PlanOp op;
  op.kind = PlanOp::Kind::kMap;
  op.expr = std::move(expr);
  op.name = std::move(name);
  return WithOp(std::move(op));
}

Query Query::Select(std::vector<engine::ExprPtr> exprs,
                    std::vector<std::string> names) const {
  LAMBADA_CHECK_EQ(exprs.size(), names.size());
  PlanOp op;
  op.kind = PlanOp::Kind::kSelect;
  op.exprs = std::move(exprs);
  op.names = std::move(names);
  return WithOp(std::move(op));
}

Query Query::Repartition(std::vector<std::string> keys,
                         ExchangeSpec spec) const {
  PlanOp op;
  op.kind = PlanOp::Kind::kExchange;
  spec.keys = std::move(keys);
  op.exchange = std::move(spec);
  return WithOp(std::move(op));
}

Query Query::JoinWith(const Query& build,
                      std::vector<std::string> probe_keys,
                      std::vector<std::string> build_keys,
                      engine::JoinType type, ExchangeSpec exchange) const {
  LAMBADA_CHECK(!probe_keys.empty());
  LAMBADA_CHECK_EQ(probe_keys.size(), build_keys.size());
  PlanOp op;
  op.kind = PlanOp::Kind::kJoin;
  JoinSpec spec;
  spec.type = type;
  spec.probe_keys = std::move(probe_keys);
  spec.build_keys = std::move(build_keys);
  spec.build_pattern = build.pattern();
  spec.build_ops = build.ops();
  spec.build_exchange = std::move(exchange);
  op.join = std::move(spec);
  return WithOp(std::move(op));
}

Query Query::Aggregate(std::vector<std::string> group_by,
                       std::vector<engine::AggSpec> aggs) const {
  PlanOp op;
  op.kind = PlanOp::Kind::kAggregate;
  op.group_by = std::move(group_by);
  op.aggs = std::move(aggs);
  return WithOp(std::move(op));
}

Query Query::ReduceSum(const std::string& column) const {
  return Aggregate({}, {engine::Sum(engine::Col(column), "sum")});
}

Query Query::ReduceCount() const {
  return Aggregate({}, {engine::Count("count")});
}

}  // namespace lambada::core
