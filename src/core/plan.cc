#include "core/plan.h"

#include <limits>

namespace lambada::core {

namespace {

void PutStringVec(BinaryWriter* w, const std::vector<std::string>& v) {
  w->PutVarint(v.size());
  for (const auto& s : v) w->PutString(s);
}

Result<std::vector<std::string>> GetStringVec(BinaryReader* r) {
  ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 1000000) return Status::IOError("implausible string count");
  std::vector<std::string> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(std::string s, r->GetString());
    v.push_back(std::move(s));
  }
  return v;
}

void PutOptionalExpr(BinaryWriter* w, const engine::ExprPtr& e) {
  w->PutU8(e != nullptr ? 1 : 0);
  if (e != nullptr) e->Serialize(w);
}

Result<engine::ExprPtr> GetOptionalExpr(BinaryReader* r) {
  ASSIGN_OR_RETURN(uint8_t has, r->GetU8());
  if (has == 0) return engine::ExprPtr(nullptr);
  return engine::Expr::Deserialize(r);
}

/// Body of PlanOp::Deserialize after the kind tag has been read and
/// validated. `depth` counts the JoinSpecs currently open on the call
/// stack: a kJoin body recurses into JoinSpec::Deserialize, which fails
/// once depth reaches kMaxPlanDepth, so a crafted blob nesting joins
/// arbitrarily deep gets a clean parse error instead of a stack overflow.
Result<PlanOp> DeserializePlanOpBody(PlanOp::Kind kind, BinaryReader* r,
                                     int depth);

}  // namespace

void ExchangeSpec::Serialize(BinaryWriter* w) const {
  PutStringVec(w, keys);
  w->PutU8(static_cast<uint8_t>(levels));
  w->PutU32(static_cast<uint32_t>(num_buckets));
  w->PutString(bucket_prefix);
  w->PutString(exchange_id);
}

Result<ExchangeSpec> ExchangeSpec::Deserialize(BinaryReader* r) {
  ExchangeSpec s;
  ASSIGN_OR_RETURN(s.keys, GetStringVec(r));
  ASSIGN_OR_RETURN(uint8_t levels, r->GetU8());
  if (levels < 1 || levels > 3) return Status::IOError("bad exchange levels");
  s.levels = levels;
  ASSIGN_OR_RETURN(uint32_t buckets, r->GetU32());
  if (buckets == 0 ||
      buckets > static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
    return Status::IOError("bad exchange bucket count");
  }
  s.num_buckets = static_cast<int>(buckets);
  ASSIGN_OR_RETURN(s.bucket_prefix, r->GetString());
  ASSIGN_OR_RETURN(s.exchange_id, r->GetString());
  return s;
}

void JoinSpec::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(strategy));
  w->PutVarint(static_cast<uint64_t>(build_ordinal));
  w->PutU8(static_cast<uint8_t>(type));
  PutStringVec(w, probe_keys);
  PutStringVec(w, build_keys);
  w->PutString(build_pattern);
  PutStringVec(w, build_scan_projection);
  PutOptionalExpr(w, build_scan_filter);
  w->PutVarint(build_ops.size());
  for (const auto& op : build_ops) op.Serialize(w);
  build_exchange.Serialize(w);
}

Result<JoinSpec> JoinSpec::Deserialize(BinaryReader* r, int depth) {
  if (depth >= kMaxPlanDepth) {
    return Status::IOError("plan exceeds kMaxPlanDepth join nesting");
  }
  JoinSpec s;
  ASSIGN_OR_RETURN(uint8_t strategy, r->GetU8());
  if (strategy > static_cast<uint8_t>(JoinStrategy::kBroadcast)) {
    return Status::IOError("bad join strategy");
  }
  s.strategy = static_cast<JoinStrategy>(strategy);
  ASSIGN_OR_RETURN(uint64_t ordinal, r->GetVarint());
  if (ordinal > 10000) return Status::IOError("implausible join ordinal");
  s.build_ordinal = static_cast<int>(ordinal);
  ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
  if (type > static_cast<uint8_t>(engine::JoinType::kLeftSemi)) {
    return Status::IOError("bad join type");
  }
  s.type = static_cast<engine::JoinType>(type);
  ASSIGN_OR_RETURN(s.probe_keys, GetStringVec(r));
  ASSIGN_OR_RETURN(s.build_keys, GetStringVec(r));
  if (s.probe_keys.empty() || s.probe_keys.size() != s.build_keys.size()) {
    return Status::IOError("bad join key lists");
  }
  ASSIGN_OR_RETURN(s.build_pattern, r->GetString());
  ASSIGN_OR_RETURN(s.build_scan_projection, GetStringVec(r));
  ASSIGN_OR_RETURN(s.build_scan_filter, GetOptionalExpr(r));
  ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 10000) return Status::IOError("implausible build op count");
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
    if (kind > static_cast<uint8_t>(PlanOp::Kind::kJoin)) {
      return Status::IOError("bad plan op kind");
    }
    // A nested kJoin recurses one level deeper; JoinSpec::Deserialize
    // bounds that with kMaxPlanDepth. Whether a breaker is *allowed* in a
    // build pipeline is the executor's call, not the parser's.
    ASSIGN_OR_RETURN(
        PlanOp op,
        DeserializePlanOpBody(static_cast<PlanOp::Kind>(kind), r, depth + 1));
    s.build_ops.push_back(std::move(op));
  }
  ASSIGN_OR_RETURN(s.build_exchange, ExchangeSpec::Deserialize(r));
  return s;
}

void PlanOp::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind));
  switch (kind) {
    case Kind::kFilter:
      expr->Serialize(w);
      break;
    case Kind::kMap:
      expr->Serialize(w);
      w->PutString(name);
      break;
    case Kind::kSelect:
      w->PutVarint(exprs.size());
      for (size_t i = 0; i < exprs.size(); ++i) {
        exprs[i]->Serialize(w);
        w->PutString(names[i]);
      }
      break;
    case Kind::kExchange:
      exchange->Serialize(w);
      break;
    case Kind::kAggregate:
      PutStringVec(w, group_by);
      w->PutVarint(aggs.size());
      for (const auto& a : aggs) a.Serialize(w);
      break;
    case Kind::kJoin:
      join->Serialize(w);
      break;
  }
}

Result<PlanOp> PlanOp::Deserialize(BinaryReader* r) {
  ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(Kind::kJoin)) {
    return Status::IOError("bad plan op kind");
  }
  return DeserializePlanOpBody(static_cast<Kind>(kind), r, 0);
}

namespace {

Result<PlanOp> DeserializePlanOpBody(PlanOp::Kind kind, BinaryReader* r,
                                     int depth) {
  using Kind = PlanOp::Kind;
  PlanOp op;
  op.kind = kind;
  switch (op.kind) {
    case Kind::kFilter: {
      ASSIGN_OR_RETURN(op.expr, engine::Expr::Deserialize(r));
      break;
    }
    case Kind::kMap: {
      ASSIGN_OR_RETURN(op.expr, engine::Expr::Deserialize(r));
      ASSIGN_OR_RETURN(op.name, r->GetString());
      break;
    }
    case Kind::kSelect: {
      ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
      if (n > 100000) return Status::IOError("implausible select width");
      for (uint64_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(engine::ExprPtr e, engine::Expr::Deserialize(r));
        ASSIGN_OR_RETURN(std::string name, r->GetString());
        op.exprs.push_back(std::move(e));
        op.names.push_back(std::move(name));
      }
      break;
    }
    case Kind::kExchange: {
      ASSIGN_OR_RETURN(ExchangeSpec spec, ExchangeSpec::Deserialize(r));
      op.exchange = std::move(spec);
      break;
    }
    case Kind::kAggregate: {
      ASSIGN_OR_RETURN(op.group_by, GetStringVec(r));
      ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
      if (n > 100000) return Status::IOError("implausible agg count");
      for (uint64_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(engine::AggSpec a,
                         engine::AggSpec::Deserialize(r));
        op.aggs.push_back(std::move(a));
      }
      break;
    }
    case Kind::kJoin: {
      ASSIGN_OR_RETURN(JoinSpec spec, JoinSpec::Deserialize(r, depth));
      op.join = std::move(spec);
      break;
    }
  }
  return op;
}

}  // namespace

std::vector<uint8_t> PlanFragment::Serialize() const {
  BinaryWriter w;
  PutStringVec(&w, scan_projection);
  PutOptionalExpr(&w, scan_filter);
  w.PutVarint(ops.size());
  for (const auto& op : ops) op.Serialize(&w);
  w.PutU64(static_cast<uint64_t>(chunk_bytes));
  return w.Take();
}

Result<PlanFragment> PlanFragment::Deserialize(const uint8_t* data,
                                               size_t size) {
  BinaryReader r(data, size);
  PlanFragment f;
  ASSIGN_OR_RETURN(f.scan_projection, GetStringVec(&r));
  ASSIGN_OR_RETURN(f.scan_filter, GetOptionalExpr(&r));
  ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 10000) return Status::IOError("implausible op count");
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(PlanOp op, PlanOp::Deserialize(&r));
    f.ops.push_back(std::move(op));
  }
  ASSIGN_OR_RETURN(uint64_t chunk_bytes, r.GetU64());
  f.chunk_bytes = static_cast<int64_t>(chunk_bytes);
  if (r.remaining() != 0) return Status::IOError("plan trailing bytes");
  return f;
}

}  // namespace lambada::core
