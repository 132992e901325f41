#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace lambada::core {

namespace {

using engine::BinaryOp;
using engine::Expr;
using engine::ExprPtr;
using engine::Interval;

// ---------------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------------

bool LiteralValue(const ExprPtr& e, double* v) {
  if (e->kind() == Expr::Kind::kLiteralInt) {
    *v = static_cast<double>(e->int_value());
    return true;
  }
  if (e->kind() == Expr::Kind::kLiteralFloat) {
    *v = e->float_value();
    return true;
  }
  return false;
}

/// Mirror of a comparison when the literal is on the left: `lit < col`
/// holds iff `col > lit`.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric.
  }
}

constexpr double kDefaultEqSel = 0.1;
constexpr double kDefaultRangeSel = 0.3;
constexpr double kDefaultOtherSel = 0.3;

double ColumnCompareSelectivity(
    BinaryOp op, const std::string& col, double lit,
    const std::map<std::string, Interval>& cols, double rows) {
  auto it = cols.find(col);
  bool bounded = it != cols.end() && std::isfinite(it->second.lo) &&
                 std::isfinite(it->second.hi) &&
                 it->second.hi >= it->second.lo;
  if (!bounded) {
    switch (op) {
      case BinaryOp::kEq: return kDefaultEqSel;
      case BinaryOp::kNe: return 1.0 - kDefaultEqSel;
      default: return kDefaultRangeSel;
    }
  }
  double lo = it->second.lo, hi = it->second.hi;
  double width = hi - lo;
  auto clamp01 = [](double x) { return std::clamp(x, 0.0, 1.0); };
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      if (width <= 0) return lit >= lo ? 1.0 : 0.0;
      return clamp01((lit - lo) / width);
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if (width <= 0) return lit <= hi ? 1.0 : 0.0;
      return clamp01((hi - lit) / width);
    case BinaryOp::kEq: {
      if (lit < lo || lit > hi) return 0.0;
      double domain = width + 1.0;
      double ndv = rows > 0 ? std::min(rows, domain) : domain;
      return 1.0 / std::max(1.0, ndv);
    }
    case BinaryOp::kNe: {
      double eq = ColumnCompareSelectivity(BinaryOp::kEq, col, lit, cols,
                                           rows);
      return 1.0 - eq;
    }
    default:
      return kDefaultOtherSel;
  }
}

}  // namespace

double EstimateSelectivity(const ExprPtr& predicate,
                           const std::map<std::string, Interval>& cols,
                           double rows) {
  if (predicate == nullptr) return 1.0;
  if (predicate->kind() != Expr::Kind::kBinary) return kDefaultOtherSel;
  BinaryOp op = predicate->op();
  if (op == BinaryOp::kAnd) {
    return EstimateSelectivity(predicate->left(), cols, rows) *
           EstimateSelectivity(predicate->right(), cols, rows);
  }
  if (op == BinaryOp::kOr) {
    double a = EstimateSelectivity(predicate->left(), cols, rows);
    double b = EstimateSelectivity(predicate->right(), cols, rows);
    return a + b - a * b;  // Independence assumption.
  }
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return kDefaultOtherSel;  // Arithmetic in boolean position.
  }
  const ExprPtr& l = predicate->left();
  const ExprPtr& r = predicate->right();
  double lit = 0;
  if (l->kind() == Expr::Kind::kColumn && LiteralValue(r, &lit)) {
    return ColumnCompareSelectivity(op, l->column_name(), lit, cols, rows);
  }
  if (r->kind() == Expr::Kind::kColumn && LiteralValue(l, &lit)) {
    return ColumnCompareSelectivity(FlipComparison(op), r->column_name(), lit,
                                    cols, rows);
  }
  return kDefaultOtherSel;  // Column-vs-column or nested comparison.
}

namespace {

/// Join-order DP bound: up to this many join edges are enumerated exactly;
/// beyond it a greedy ordering is used.
constexpr size_t kMaxDpRelations = 6;

// ---------------------------------------------------------------------------
// Internal bookkeeping
// ---------------------------------------------------------------------------

/// A join edge being planned: its (already build-side-planned) JoinSpec
/// plus everything the enumerator needs to know about it.
struct EdgeInfo {
  JoinSpec spec;
  /// Raw build-side output set (nullopt = open, no terminal Select).
  std::optional<std::set<std::string>> build_out;
  /// What an inner join adds to the probe stream: build_out minus the
  /// dropped build keys. A left-semi edge provides nothing. nullopt for
  /// an open inner build side.
  std::optional<std::set<std::string>> provides;
  // Build-relation stats (0 = unknown).
  double rows = 0;       ///< Post-filter row estimate.
  double bytes = 0;      ///< Post-filter byte estimate.
  double raw_bytes = 0;  ///< Raw bytes a broadcast scan would move.
  int64_t files = 0;
  /// Join-cardinality denominator: max over key pairs of the larger
  /// side's distinct-value estimate (>= 1; 0 = unknown).
  double ndv = 0;
};

/// Running size estimate of the probe stream (0 = unknown).
struct Est {
  double rows = 0;
  double bytes = 0;
};

double NdvEstimate(const RelationStats* stats, const std::string& col,
                   double fallback_rows) {
  double rows = stats != nullptr && stats->rows > 0 ? stats->rows
                                                    : fallback_rows;
  if (stats != nullptr) {
    auto it = stats->columns.find(col);
    if (it != stats->columns.end() && std::isfinite(it->second.lo) &&
        std::isfinite(it->second.hi) && it->second.hi >= it->second.lo) {
      double domain = it->second.hi - it->second.lo + 1.0;
      return rows > 0 ? std::min(rows, domain) : domain;
    }
  }
  return rows;
}

Est ApplyEdge(const Est& in, const EdgeInfo& e) {
  bool inner = e.spec.type == engine::JoinType::kInner;
  Est out;
  if (in.rows > 0 && e.rows > 0 && e.ndv > 0) {
    out.rows = inner ? in.rows * e.rows / e.ndv
                     : in.rows * std::min(1.0, e.rows / e.ndv);
    out.rows = std::max(out.rows, 1.0);
  }
  if (in.bytes > 0) {
    if (out.rows > 0 && in.rows > 0) {
      double probe_width = in.bytes / in.rows;
      double build_width =
          inner && e.bytes > 0 && e.rows > 0 ? e.bytes / e.rows : 0.0;
      out.bytes = out.rows * (probe_width + build_width);
    } else if (inner) {
      // Unknown cardinalities: a matching inner join roughly appends the
      // smaller side's payload to the larger side's rows.
      out.bytes = in.bytes + std::min(in.bytes,
                                      e.bytes > 0 ? e.bytes : in.bytes);
    } else {
      out.bytes = 0.5 * in.bytes;  // Semi joins only shrink the probe.
    }
    out.bytes = std::max(out.bytes, 1.0);
  }
  return out;
}

/// Modeled traffic of both strategies for edge `e` joining a probe stream
/// of size `in`, plus the decision.
struct StrategyDecision {
  models::TrafficEstimate partitioned;
  models::TrafficEstimate broadcast;
  bool use_broadcast = false;
  double cost = 0;  ///< usd of the chosen strategy (enumeration metric).
};

StrategyDecision DecideStrategy(const EdgeInfo& e, const Est& in,
                                const OptimizerOptions& opt) {
  StrategyDecision d;
  int workers = std::max(1, opt.workers);
  d.partitioned = models::PartitionedExchangeTraffic(
      in.bytes, e.bytes, workers, e.spec.build_exchange.levels);
  bool broadcast_known = opt.workers > 0 && e.raw_bytes > 0;
  if (broadcast_known) {
    d.broadcast = models::BroadcastTraffic(e.raw_bytes, e.files, opt.workers);
  }
  switch (opt.strategy) {
    case JoinStrategyOverride::kForcePartitioned:
      d.use_broadcast = false;
      break;
    case JoinStrategyOverride::kForceBroadcast:
      d.use_broadcast = true;
      break;
    case JoinStrategyOverride::kAuto:
      // Broadcast needs evidence: a known fleet size, a known build size,
      // and a known probe size to compare against — otherwise the
      // exchange is the safe default.
      d.use_broadcast = broadcast_known && in.bytes > 0 &&
                        d.broadcast.usd < d.partitioned.usd;
      break;
  }
  d.cost = d.use_broadcast ? d.broadcast.usd : d.partitioned.usd;
  return d;
}

std::string FormatRows(double rows) {
  if (rows <= 0) return "?";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld",
                static_cast<long long>(std::llround(rows)));
  return buf;
}

std::string FormatUsd(double usd) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "$%.6f", usd);
  return buf;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

void FlattenBinary(const ExprPtr& e, BinaryOp op, std::vector<ExprPtr>* out) {
  if (e->kind() == Expr::Kind::kBinary && e->op() == op) {
    FlattenBinary(e->left(), op, out);
    FlattenBinary(e->right(), op, out);
  } else {
    out->push_back(e);
  }
}

ExprPtr AndAll(const std::vector<ExprPtr>& exprs) {
  ExprPtr out;
  for (const auto& e : exprs) {
    out = out == nullptr ? e : Expr::Binary(BinaryOp::kAnd, out, e);
  }
  return out;
}

ExprPtr OrAll(const std::vector<ExprPtr>& exprs) {
  ExprPtr out;
  for (const auto& e : exprs) {
    out = out == nullptr ? e : Expr::Binary(BinaryOp::kOr, out, e);
  }
  return out;
}

PlanOp MakeFilter(ExprPtr e) {
  PlanOp op;
  op.kind = PlanOp::Kind::kFilter;
  op.expr = std::move(e);
  return op;
}

bool Subset(const std::set<std::string>& a, const std::set<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

bool Disjoint(const std::set<std::string>& a, const std::set<std::string>& b) {
  for (const auto& x : a) {
    if (b.count(x)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// OptimizeQuery
// ---------------------------------------------------------------------------

Result<PhysicalQuery> OptimizeQuery(const Query& query, const Catalog& catalog,
                                    const OptimizerOptions& options) {
  ASSIGN_OR_RETURN(LogicalPlan lp, BuildLogicalPlan(query));
  const size_t m = lp.joins.size();
  if (m > 63) return Status::NotImplemented("more than 63 joins");

  // -- 1. Filter attribution ------------------------------------------------
  // Per-relation "provides" sets first (what each build adds to the probe
  // stream post-join); they drive both attribution and key provenance.
  std::vector<std::optional<std::set<std::string>>> edge_provides(m);
  for (size_t j = 0; j < m; ++j) {
    const LogicalJoinEdge& edge = lp.joins[j];
    if (edge.type == engine::JoinType::kLeftSemi) {
      edge_provides[j].emplace();  // Provides nothing, and that is known.
      continue;
    }
    auto emits = ClosedOutputSet(lp.relations[edge.build_relation].ops);
    if (!emits.has_value()) continue;  // Open: unknown provides.
    for (const auto& k : edge.build_keys) emits->erase(k);
    edge_provides[j] = std::move(*emits);
  }
  std::set<std::string> claimed;  // Known build-provided columns.
  bool any_open = false;
  for (size_t j = 0; j < m; ++j) {
    if (!edge_provides[j].has_value()) {
      any_open = true;
    } else {
      claimed.insert(edge_provides[j]->begin(), edge_provides[j]->end());
    }
  }
  std::optional<std::set<std::string>> probe_closed =
      ClosedOutputSet(lp.relations[0].ops);

  std::vector<ExprPtr> residuals;
  for (const ExprPtr& f : lp.filters) {
    std::set<std::string> cols;
    f->CollectColumns(&cols);
    // A filter local to one inner build side runs before that join.
    bool pushed = false;
    for (size_t j = 0; j < m && !pushed; ++j) {
      if (lp.joins[j].type != engine::JoinType::kInner) continue;
      if (edge_provides[j].has_value() && !edge_provides[j]->empty() &&
          Subset(cols, *edge_provides[j])) {
        lp.relations[lp.joins[j].build_relation].ops.push_back(MakeFilter(f));
        pushed = true;
      }
    }
    if (pushed) continue;
    // A filter touching no known build column runs on the driving
    // relation, before any join.
    if (!any_open && Disjoint(cols, claimed) &&
        (!probe_closed.has_value() || Subset(cols, *probe_closed))) {
      lp.relations[0].ops.push_back(MakeFilter(f));
      continue;
    }
    residuals.push_back(f);
  }

  // OR-of-ANDs residuals additionally push their per-relation implied
  // disjunction (each disjunct's conjuncts that are local to the target):
  // sound whenever every disjunct constrains the target, and exactly the
  // classic Q19 rewrite. The original predicate stays as the residual.
  for (const ExprPtr& f : residuals) {
    if (f->kind() != Expr::Kind::kBinary || f->op() != BinaryOp::kOr) {
      continue;
    }
    std::vector<ExprPtr> disjuncts;
    FlattenBinary(f, BinaryOp::kOr, &disjuncts);
    // Candidate targets: the driving relation plus each inner build side.
    for (size_t target = 0; target <= m; ++target) {
      size_t rel;
      std::optional<std::set<std::string>> local_cols;
      bool local_is_probe = false;
      if (target == m) {
        rel = 0;
        local_is_probe = true;
        if (any_open) continue;
      } else {
        if (lp.joins[target].type != engine::JoinType::kInner) continue;
        if (!edge_provides[target].has_value() ||
            edge_provides[target]->empty()) {
          continue;
        }
        rel = lp.joins[target].build_relation;
        local_cols = edge_provides[target];
      }
      std::vector<ExprPtr> implied;
      bool ok = true;
      for (const ExprPtr& d : disjuncts) {
        std::vector<ExprPtr> conjuncts, local;
        FlattenBinary(d, BinaryOp::kAnd, &conjuncts);
        for (const ExprPtr& c : conjuncts) {
          std::set<std::string> cols;
          c->CollectColumns(&cols);
          bool is_local = local_is_probe
                              ? Disjoint(cols, claimed) &&
                                    (!probe_closed.has_value() ||
                                     Subset(cols, *probe_closed))
                              : Subset(cols, *local_cols);
          if (is_local) local.push_back(c);
        }
        if (local.empty()) {
          ok = false;
          break;
        }
        implied.push_back(AndAll(local));
      }
      if (ok) lp.relations[rel].ops.push_back(MakeFilter(OrAll(implied)));
    }
  }

  // -- 2. Per-relation stats and edge construction --------------------------
  auto rel_stats = [&](const std::string& pattern) -> const RelationStats* {
    auto it = catalog.relations.find(pattern);
    return it == catalog.relations.end() ? nullptr : &it->second;
  };
  auto filtered_size = [&](size_t rel, double* rows, double* bytes,
                           const RelationStats* stats) {
    *rows = 0;
    *bytes = 0;
    if (stats == nullptr) return;
    double sel = 1.0;
    for (const PlanOp& op : lp.relations[rel].ops) {
      if (op.kind == PlanOp::Kind::kFilter) {
        sel *= EstimateSelectivity(op.expr, stats->columns, stats->rows);
      }
    }
    sel = std::max(sel, 1e-9);
    if (stats->rows > 0) *rows = std::max(1.0, stats->rows * sel);
    if (stats->bytes > 0) *bytes = std::max(1.0, stats->bytes * sel);
  };

  const RelationStats* probe_stats = rel_stats(lp.relations[0].pattern);
  Est probe0;
  filtered_size(0, &probe0.rows, &probe0.bytes, probe_stats);

  // Provider of a probe key column: the inner edge that emits it, else
  // the driving relation. Used for distinct-value estimates.
  auto key_provider_stats =
      [&](const std::string& key) -> std::pair<const RelationStats*, double> {
    for (size_t j = 0; j < m; ++j) {
      if (edge_provides[j].has_value() && edge_provides[j]->count(key)) {
        const RelationStats* s =
            rel_stats(lp.relations[lp.joins[j].build_relation].pattern);
        double rows, bytes;
        filtered_size(lp.joins[j].build_relation, &rows, &bytes, s);
        return {s, rows};
      }
    }
    return {probe_stats, probe0.rows};
  };

  std::vector<EdgeInfo> edges(m);
  for (size_t j = 0; j < m; ++j) {
    const LogicalJoinEdge& edge = lp.joins[j];
    EdgeInfo& e = edges[j];
    e.spec.type = edge.type;
    e.spec.probe_keys = edge.probe_keys;
    e.spec.build_keys = edge.build_keys;
    e.spec.build_pattern = lp.relations[edge.build_relation].pattern;
    e.spec.build_ops = lp.relations[edge.build_relation].ops;
    e.spec.build_exchange = edge.exchange;
    ASSIGN_OR_RETURN(e.build_out, PlanBuildSide(&e.spec));
    e.provides = edge_provides[j];

    const RelationStats* stats = rel_stats(e.spec.build_pattern);
    filtered_size(edge.build_relation, &e.rows, &e.bytes, stats);
    if (stats != nullptr) {
      e.raw_bytes = stats->bytes;
      e.files = stats->files;
    }
    // ndv = max over key pairs of the larger side's distinct count.
    for (size_t k = 0; k < edge.probe_keys.size(); ++k) {
      auto [prov_stats, prov_rows] = key_provider_stats(edge.probe_keys[k]);
      double ndv_p = NdvEstimate(prov_stats, edge.probe_keys[k], prov_rows);
      double ndv_b = NdvEstimate(stats, edge.build_keys[k], e.rows);
      e.ndv = std::max(e.ndv, std::max(ndv_p, ndv_b));
    }
    e.ndv = std::max(e.ndv, e.rows > 0 || probe0.rows > 0 ? 1.0 : 0.0);
  }

  // Probe keys nobody claims must come off the driving relation's scan;
  // catch a dropped key now rather than at fleet runtime.
  {
    std::vector<std::string> probe_provided;
    for (const auto& e : edges) {
      for (const auto& k : e.spec.probe_keys) {
        if (!claimed.count(k)) probe_provided.push_back(k);
      }
    }
    RETURN_NOT_OK(ValidateKeysSurvive(probe_closed, probe_provided, "probe"));
  }

  // -- 3. Feasibility and join-order enumeration ----------------------------
  // An edge may run once each of its probe keys is available: emitted by a
  // joined inner edge, possibly emitted by a joined open build, or never
  // claimed by any build (then it rides the probe stream from the scan).
  auto key_available = [&](const std::string& k, uint64_t prefix) {
    // Unclaimed columns ride the probe stream from the scan (validated
    // against the driving relation's closed set above). With an open
    // build in play provenance is uncertain, but then the optimizer never
    // reorders, so trusting the query's own order stays sound.
    if (!claimed.count(k)) return true;
    for (size_t j = 0; j < m; ++j) {
      if (!(prefix >> j & 1)) continue;
      if (!edges[j].provides.has_value()) return true;  // Open wildcard.
      if (edges[j].provides->count(k)) return true;
    }
    return false;
  };
  auto edge_feasible = [&](size_t e, uint64_t prefix) {
    for (const auto& k : edges[e].spec.probe_keys) {
      if (!key_available(k, prefix)) return false;
    }
    return true;
  };
  // Order-independent size estimate of a joined prefix (edges folded in
  // index order — an approximation that keeps the DP state a set).
  auto estimate_mask = [&](uint64_t mask) {
    Est est = probe0;
    for (size_t j = 0; j < m; ++j) {
      if (mask >> j & 1) est = ApplyEdge(est, edges[j]);
    }
    return est;
  };

  std::vector<size_t> order;
  bool have_stats = probe0.bytes > 0;
  if (m <= 1) {
    order.assign(m, 0);  // Zero or one join: nothing to order.
  } else if (any_open || !have_stats ||
             m > kMaxDpRelations) {
    // Greedy (or syntax order when there is nothing to optimize with):
    // repeatedly take the cheapest feasible edge; ties keep syntax order.
    uint64_t mask = 0;
    for (size_t step = 0; step < m; ++step) {
      double best = std::numeric_limits<double>::infinity();
      size_t pick = m;
      Est in = estimate_mask(mask);
      for (size_t j = 0; j < m; ++j) {
        if (mask >> j & 1) continue;
        if (!edge_feasible(j, mask)) continue;
        double cost =
            have_stats ? DecideStrategy(edges[j], in, options).cost : 0.0;
        if (cost < best) {
          best = cost;
          pick = j;
        }
      }
      if (pick == m) {
        return Status::Invalid(
            "join probe key of join " + std::to_string(step) +
            " is not available: it is produced by a later join's build "
            "relation");
      }
      order.push_back(pick);
      mask |= uint64_t{1} << pick;
    }
  } else {
    // Left-deep DP over edge subsets, minimizing summed modeled traffic.
    // Candidates iterate descending with strict improvement so that exact
    // ties reconstruct to the query's syntax order.
    const uint64_t full = (uint64_t{1} << m) - 1;
    std::vector<double> best(full + 1,
                             std::numeric_limits<double>::infinity());
    std::vector<int> last(full + 1, -1);
    best[0] = 0;
    for (uint64_t mask = 1; mask <= full; ++mask) {
      for (size_t j = m; j-- > 0;) {
        if (!(mask >> j & 1)) continue;
        uint64_t prefix = mask & ~(uint64_t{1} << j);
        if (std::isinf(best[prefix])) continue;
        if (!edge_feasible(j, prefix)) continue;
        double cost =
            best[prefix] +
            DecideStrategy(edges[j], estimate_mask(prefix), options).cost;
        if (cost < best[mask]) {
          best[mask] = cost;
          last[mask] = static_cast<int>(j);
        }
      }
    }
    if (std::isinf(best[full])) {
      return Status::Invalid(
          "no feasible join order: a join's probe key is never available "
          "(dropped by a Select or emitted by no relation)");
    }
    for (uint64_t mask = full; mask != 0;) {
      size_t j = static_cast<size_t>(last[mask]);
      order.push_back(j);
      mask &= ~(uint64_t{1} << j);
    }
    std::reverse(order.begin(), order.end());
  }

  // -- 4. Residual placement ------------------------------------------------
  // Each residual re-enters at the earliest prefix providing its columns.
  std::vector<std::vector<ExprPtr>> residual_at(m + 1);
  for (const ExprPtr& f : residuals) {
    std::set<std::string> cols;
    f->CollectColumns(&cols);
    size_t at = m;
    // An open build may supply any column, so with one in play residuals
    // stay after every join (their original downstream position; moving a
    // filter later across inner/semi joins is always sound, moving it
    // earlier is not).
    for (size_t t = any_open ? m : 0; t <= m; ++t) {
      uint64_t prefix = 0;
      for (size_t i = 0; i < t; ++i) prefix |= uint64_t{1} << order[i];
      bool all = true;
      for (const auto& c : cols) {
        if (!key_available(c, prefix)) {
          all = false;
          break;
        }
      }
      if (all) {
        at = t;
        break;
      }
    }
    residual_at[at].push_back(f);
  }

  // -- 5. Assemble the physical fragment ------------------------------------
  PhysicalQuery out;
  out.pattern = lp.relations[0].pattern;
  for (size_t t = 0; t < residual_at[0].size(); ++t) {
    lp.relations[0].ops.push_back(MakeFilter(residual_at[0][t]));
  }
  size_t first_kept = 0;
  out.fragment.scan_filter =
      FoldLeadingFilters(lp.relations[0].ops, &first_kept);
  out.fragment.ops.assign(
      lp.relations[0].ops.begin() +
          static_cast<std::ptrdiff_t>(first_kept),
      lp.relations[0].ops.end());

  Est running = probe0;
  for (size_t t = 0; t < m; ++t) {
    EdgeInfo& e = edges[order[t]];
    StrategyDecision d = DecideStrategy(e, running, options);
    Est next = ApplyEdge(running, e);

    if (!d.use_broadcast) {
      ExchangeSpec probe_exchange = e.spec.build_exchange;
      probe_exchange.keys = e.spec.probe_keys;
      PlanOp ex;
      ex.kind = PlanOp::Kind::kExchange;
      ex.exchange = std::move(probe_exchange);
      out.fragment.ops.push_back(std::move(ex));
    }
    JoinChoice choice;
    choice.build_pattern = e.spec.build_pattern;
    choice.broadcast = d.use_broadcast;
    choice.est_probe_rows = running.rows;
    choice.est_build_rows = e.rows;
    choice.est_output_rows = next.rows;
    choice.partitioned_bytes = d.partitioned.bytes;
    choice.partitioned_usd = d.partitioned.usd;
    choice.broadcast_bytes = d.broadcast.bytes;
    choice.broadcast_usd = d.broadcast.usd;
    out.join_choices.push_back(choice);
    out.build_inputs.push_back(
        BuildInput{e.spec.build_pattern, d.use_broadcast});

    PlanOp jop;
    jop.kind = PlanOp::Kind::kJoin;
    e.spec.strategy = d.use_broadcast ? JoinStrategy::kBroadcast
                                      : JoinStrategy::kPartitioned;
    e.spec.build_ordinal = static_cast<int>(t);
    jop.join = e.spec;  // Copy: `edges` stays intact for projection below.
    out.fragment.ops.push_back(std::move(jop));

    for (const ExprPtr& f : residual_at[t + 1]) {
      out.fragment.ops.push_back(MakeFilter(f));
    }
    running = next;
  }
  for (const PlanOp& op : lp.tail) out.fragment.ops.push_back(op);
  if (lp.aggregate.has_value()) {
    out.fragment.ops.push_back(*lp.aggregate);
  }
  out.driver_ops = lp.having;

  // -- 6. Probe projection push-down over the assembled pipeline ------------
  // Any open build output means post-join references cannot be attributed
  // to a side — scan everything.
  bool scan_all = false;
  for (const auto& e : edges) {
    if (!e.build_out.has_value()) scan_all = true;
  }
  if (scan_all) {
    out.fragment.scan_projection.clear();
  } else {
    std::set<std::string> referenced, produced;
    if (out.fragment.scan_filter != nullptr) {
      out.fragment.scan_filter->CollectColumns(&referenced);
    }
    size_t ordinal = 0;
    for (const PlanOp& op : out.fragment.ops) {
      if (op.kind == PlanOp::Kind::kJoin) {
        const EdgeInfo& e = edges[order[ordinal++]];
        for (const auto& k : op.join->probe_keys) {
          if (!produced.count(k)) referenced.insert(k);
        }
        if (op.join->type == engine::JoinType::kInner) {
          produced.insert(e.provides->begin(), e.provides->end());
        }
        continue;
      }
      std::set<std::string> cols;
      CollectOpColumns(op, &cols);
      for (const auto& c : cols) {
        if (!produced.count(c)) referenced.insert(c);
      }
      CollectOpOutputs(op, &produced);
    }
    out.fragment.scan_projection.assign(referenced.begin(),
                                        referenced.end());
  }

  if (out.fragment.EndsInAggregate()) {
    out.has_final_aggregate = true;
    out.final_group_by = out.fragment.ops.back().group_by;
    out.final_aggs = out.fragment.ops.back().aggs;
  }

  // -- 7. Explain text -------------------------------------------------------
  std::ostringstream ex;
  ex << "plan for " << out.pattern << "\n";
  ex << "  scan " << (m > 0 ? "probe=" : "") << out.pattern;
  if (out.fragment.scan_filter != nullptr) {
    ex << " filter=" << out.fragment.scan_filter->ToString();
  }
  ex << " projection=["
     << (out.fragment.scan_projection.empty()
             ? "*"
             : JoinNames(out.fragment.scan_projection))
     << "]\n";
  size_t ordinal = 0;
  for (const PlanOp& op : out.fragment.ops) {
    switch (op.kind) {
      case PlanOp::Kind::kJoin: {
        const JoinChoice& c = out.join_choices[ordinal++];
        const JoinSpec& js = *op.join;
        ex << "  join[" << ordinal - 1 << "] "
           << engine::JoinTypeName(js.type) << " build=" << js.build_pattern
           << " on ";
        for (size_t k = 0; k < js.probe_keys.size(); ++k) {
          if (k > 0) ex << ", ";
          ex << js.probe_keys[k] << "=" << js.build_keys[k];
        }
        ex << " strategy="
           << (c.broadcast ? "broadcast" : "partitioned") << "\n";
        if (js.build_scan_filter != nullptr) {
          ex << "    build filter=" << js.build_scan_filter->ToString()
             << "\n";
        }
        ex << "    est rows: probe=" << FormatRows(c.est_probe_rows)
           << " build=" << FormatRows(c.est_build_rows)
           << " out=" << FormatRows(c.est_output_rows) << "\n";
        ex << "    cost: partitioned=" << FormatUsd(c.partitioned_usd)
           << " broadcast="
           << (c.broadcast_bytes > 0 || c.broadcast_usd > 0
                   ? FormatUsd(c.broadcast_usd)
                   : "n/a")
           << "\n";
        break;
      }
      case PlanOp::Kind::kExchange:
        ex << "  exchange keys=[" << JoinNames(op.exchange->keys)
           << "] levels=" << op.exchange->levels << "\n";
        break;
      case PlanOp::Kind::kFilter:
        ex << "  filter " << op.expr->ToString() << "\n";
        break;
      case PlanOp::Kind::kMap:
        ex << "  map " << op.name << "=" << op.expr->ToString() << "\n";
        break;
      case PlanOp::Kind::kSelect:
        ex << "  select [" << JoinNames(op.names) << "]\n";
        break;
      case PlanOp::Kind::kAggregate: {
        ex << "  aggregate group=[" << JoinNames(op.group_by) << "] aggs=[";
        for (size_t a = 0; a < op.aggs.size(); ++a) {
          if (a > 0) ex << ", ";
          ex << engine::AggKindName(op.aggs[a].kind) << " as "
             << op.aggs[a].output_name;
        }
        ex << "]\n";
        break;
      }
    }
  }
  for (const PlanOp& op : out.driver_ops) {
    ex << "  having " << op.expr->ToString() << "\n";
  }
  out.explain_text = ex.str();
  return out;
}

int64_t AdaptiveChunkBytes(int64_t scan_bytes_per_worker, int connections) {
  constexpr int64_t kMiB = 1024 * 1024;
  constexpr int64_t kSaturationBytes = 16 * kMiB;  // Fig. 7: 1-conn knee.
  constexpr int64_t kMinChunk = kMiB;              // Fig. 7: cost floor.
  int64_t chunk = kSaturationBytes / std::max(1, connections);
  if (scan_bytes_per_worker > 0) {
    chunk = std::min(chunk, std::max(kMinChunk, scan_bytes_per_worker / 8));
  }
  return std::clamp(chunk, kMinChunk, kSaturationBytes);
}

}  // namespace lambada::core
