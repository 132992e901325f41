#include "core/logical_plan.h"

#include <algorithm>

namespace lambada::core {

using engine::BinaryOp;
using engine::Expr;
using engine::ExprPtr;

void CollectOpColumns(const PlanOp& op, std::set<std::string>* cols) {
  switch (op.kind) {
    case PlanOp::Kind::kFilter:
    case PlanOp::Kind::kMap:
      op.expr->CollectColumns(cols);
      break;
    case PlanOp::Kind::kSelect:
      for (const auto& e : op.exprs) e->CollectColumns(cols);
      break;
    case PlanOp::Kind::kExchange:
      for (const auto& k : op.exchange->keys) cols->insert(k);
      break;
    case PlanOp::Kind::kAggregate:
      for (const auto& g : op.group_by) cols->insert(g);
      for (const auto& a : op.aggs) {
        if (a.input != nullptr) a.input->CollectColumns(cols);
      }
      break;
    case PlanOp::Kind::kJoin:
      // Probe-side needs only: the build side has its own pipeline and is
      // planned separately.
      for (const auto& k : op.join->probe_keys) cols->insert(k);
      break;
  }
}

void CollectOpOutputs(const PlanOp& op, std::set<std::string>* produced) {
  switch (op.kind) {
    case PlanOp::Kind::kMap:
      produced->insert(op.name);
      break;
    case PlanOp::Kind::kSelect:
      for (const auto& n : op.names) produced->insert(n);
      break;
    case PlanOp::Kind::kAggregate:
      for (const auto& a : op.aggs) produced->insert(a.output_name);
      break;
    default:
      break;
  }
}

ExprPtr FoldLeadingFilters(const std::vector<PlanOp>& ops,
                           size_t* first_kept) {
  ExprPtr folded;
  while (*first_kept < ops.size() &&
         ops[*first_kept].kind == PlanOp::Kind::kFilter) {
    folded = folded == nullptr
                 ? ops[*first_kept].expr
                 : Expr::Binary(BinaryOp::kAnd, folded,
                                ops[*first_kept].expr);
    ++*first_kept;
  }
  return folded;
}

namespace {

/// Projection push-down over a linear op run: base columns referenced by
/// the pushed filter, the op run, and `extra_columns`, excluding derived
/// columns.
std::vector<std::string> PushdownProjection(
    const ExprPtr& scan_filter, const std::vector<PlanOp>& ops,
    const std::vector<std::string>& extra_columns) {
  std::set<std::string> referenced;
  if (scan_filter != nullptr) scan_filter->CollectColumns(&referenced);
  std::set<std::string> produced;
  for (const auto& op : ops) {
    std::set<std::string> cols;
    CollectOpColumns(op, &cols);
    for (const auto& c : cols) {
      if (produced.find(c) == produced.end()) referenced.insert(c);
    }
    CollectOpOutputs(op, &produced);
  }
  for (const auto& c : extra_columns) {
    if (produced.find(c) == produced.end()) referenced.insert(c);
  }
  return {referenced.begin(), referenced.end()};
}

bool IsRowOp(const PlanOp& op) {
  return op.kind == PlanOp::Kind::kFilter || op.kind == PlanOp::Kind::kMap ||
         op.kind == PlanOp::Kind::kSelect;
}

}  // namespace

std::optional<std::set<std::string>> ClosedOutputSet(
    const std::vector<PlanOp>& ops) {
  std::optional<std::set<std::string>> closed;
  for (const auto& op : ops) {
    if (op.kind == PlanOp::Kind::kSelect) {
      closed.emplace(op.names.begin(), op.names.end());
    } else if (op.kind == PlanOp::Kind::kMap && closed.has_value()) {
      closed->insert(op.name);
    }
  }
  return closed;
}

Status ValidateKeysSurvive(const std::optional<std::set<std::string>>& closed,
                           const std::vector<std::string>& keys,
                           const char* side) {
  if (!closed.has_value()) return Status::OK();
  for (const auto& k : keys) {
    if (closed->find(k) == closed->end()) {
      return Status::Invalid(std::string("join ") + side + " key " + k +
                             " is dropped by a " + side + "-side Select");
    }
  }
  return Status::OK();
}

Result<std::optional<std::set<std::string>>> PlanBuildSide(JoinSpec* join) {
  size_t first_kept = 0;
  join->build_scan_filter = FoldLeadingFilters(join->build_ops, &first_kept);
  std::vector<PlanOp> kept(join->build_ops.begin() +
                               static_cast<std::ptrdiff_t>(first_kept),
                           join->build_ops.end());
  for (const auto& op : kept) {
    if (!IsRowOp(op)) {
      return Status::Invalid(
          "join build side supports only Filter/Map/Select operators");
    }
  }

  std::optional<std::set<std::string>> build_out = ClosedOutputSet(kept);
  RETURN_NOT_OK(ValidateKeysSurvive(build_out, join->build_keys, "build"));
  // With a closed output set the referenced columns are exactly what the
  // build scan must read; an open set still pushes the local references
  // (the build pipeline output *is* the scanned columns plus Map adds,
  // so nothing downstream can need an unscanned column... except when the
  // pipeline is empty and the join forwards every stored column). Scan
  // everything in the open case to stay correct.
  if (build_out.has_value()) {
    join->build_scan_projection = PushdownProjection(
        join->build_scan_filter, kept, join->build_keys);
  } else {
    join->build_scan_projection.clear();  // Read all columns.
  }
  join->build_ops = std::move(kept);
  join->build_exchange.keys = join->build_keys;
  return build_out;
}

Result<LogicalPlan> BuildLogicalPlan(const Query& query) {
  LogicalPlan plan;
  plan.relations.push_back(LogicalRelation{query.pattern(), {}});

  const auto& ops = query.ops();
  bool any_join = false;
  for (const auto& op : ops) {
    if (op.kind == PlanOp::Kind::kJoin) any_join = true;
  }

  bool seen_join = false;
  // Join-free queries may interleave exchanges with row ops; once the
  // first exchange appears the remaining chain is order-sensitive and
  // lands in `tail` wholesale.
  bool breaker_seen = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    if (plan.aggregate.has_value()) {
      // Only HAVING-style filters may trail the aggregate; they run in
      // the driver scope against the finalized result.
      if (op.kind != PlanOp::Kind::kFilter) {
        return Status::Invalid("Aggregate must be the final operator");
      }
      plan.having.push_back(op);
      continue;
    }
    switch (op.kind) {
      case PlanOp::Kind::kJoin: {
        if (!plan.tail.empty()) {
          return Status::NotImplemented(
              "only filters may appear between joins");
        }
        const JoinSpec& spec = *op.join;
        LogicalJoinEdge edge;
        edge.build_relation = plan.relations.size();
        edge.probe_keys = spec.probe_keys;
        edge.build_keys = spec.build_keys;
        edge.type = spec.type;
        edge.exchange = spec.build_exchange;
        plan.relations.push_back(
            LogicalRelation{spec.build_pattern, spec.build_ops});
        plan.joins.push_back(std::move(edge));
        seen_join = true;
        break;
      }
      case PlanOp::Kind::kFilter:
        if (!seen_join && !breaker_seen) {
          plan.relations[0].ops.push_back(op);
        } else if (seen_join && plan.tail.empty()) {
          plan.filters.push_back(op.expr);
        } else {
          plan.tail.push_back(op);
        }
        break;
      case PlanOp::Kind::kMap:
      case PlanOp::Kind::kSelect:
        if (!seen_join && !breaker_seen) {
          plan.relations[0].ops.push_back(op);
        } else {
          plan.tail.push_back(op);
        }
        break;
      case PlanOp::Kind::kExchange:
        if (any_join) {
          return seen_join
                     ? Status::NotImplemented(
                           "explicit exchanges after a join are not "
                           "supported")
                     : Status::NotImplemented(
                           "only row-wise operators may precede a join");
        }
        breaker_seen = true;
        plan.tail.push_back(op);
        break;
      case PlanOp::Kind::kAggregate:
        plan.aggregate = op;
        break;
    }
  }
  return plan;
}

}  // namespace lambada::core
