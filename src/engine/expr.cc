#include "engine/expr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace lambada::engine {

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "==";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
  }
  return "?";
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->column_ = std::move(name);
  return e;
}

ExprPtr Expr::LiteralInt(int64_t value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteralInt;
  e->int_value_ = value;
  return e;
}

ExprPtr Expr::LiteralFloat(double value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteralFloat;
  e->float_value_ = value;
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  LAMBADA_CHECK(left != nullptr);
  LAMBADA_CHECK(right != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBinary;
  e->op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

namespace {

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return true;
    default:
      return false;
  }
}

template <typename T>
T ApplyArith(BinaryOp op, T a, T b) {
  switch (op) {
    case BinaryOp::kAdd:
      return a + b;
    case BinaryOp::kSub:
      return a - b;
    case BinaryOp::kMul:
      return a * b;
    case BinaryOp::kDiv:
      return b == T{} ? T{} : a / b;  // SQL-ish: avoid trapping.
    default:
      LAMBADA_FATAL() << "not an arithmetic op";
      return T{};
  }
}

int64_t ApplyCompare(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kEq:
      return a == b;
    case BinaryOp::kNe:
      return a != b;
    case BinaryOp::kLt:
      return a < b;
    case BinaryOp::kLe:
      return a <= b;
    case BinaryOp::kGt:
      return a > b;
    case BinaryOp::kGe:
      return a >= b;
    case BinaryOp::kAnd:
      return (a != 0) && (b != 0);
    case BinaryOp::kOr:
      return (a != 0) || (b != 0);
    default:
      LAMBADA_FATAL() << "not a comparison op";
      return 0;
  }
}

}  // namespace

Result<Column> Expr::Evaluate(const TableChunk& chunk) const {
  switch (kind_) {
    case Kind::kColumn: {
      int idx = chunk.schema()->FieldIndex(column_);
      if (idx < 0) {
        return Status::Invalid("unknown column in expression: " + column_);
      }
      return chunk.column(static_cast<size_t>(idx));
    }
    case Kind::kLiteralInt:
      return engine::Column::Int64(
          std::vector<int64_t>(chunk.num_rows(), int_value_));
    case Kind::kLiteralFloat:
      return engine::Column::Float64(
          std::vector<double>(chunk.num_rows(), float_value_));
    case Kind::kBinary: {
      ASSIGN_OR_RETURN(engine::Column lhs, left_->Evaluate(chunk));
      ASSIGN_OR_RETURN(engine::Column rhs, right_->Evaluate(chunk));
      size_t n = chunk.num_rows();
      if (IsComparison(op_)) {
        std::vector<int64_t> out(n);
        for (size_t i = 0; i < n; ++i) {
          out[i] = ApplyCompare(op_, lhs.ValueAsDouble(i),
                                rhs.ValueAsDouble(i));
        }
        return engine::Column::Int64(std::move(out));
      }
      // Arithmetic: int64 only if both sides are int64.
      if (lhs.type() == DataType::kInt64 &&
          rhs.type() == DataType::kInt64) {
        std::vector<int64_t> out(n);
        const auto& a = lhs.i64();
        const auto& b = rhs.i64();
        for (size_t i = 0; i < n; ++i) out[i] = ApplyArith(op_, a[i], b[i]);
        return engine::Column::Int64(std::move(out));
      }
      std::vector<double> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] =
            ApplyArith(op_, lhs.ValueAsDouble(i), rhs.ValueAsDouble(i));
      }
      return engine::Column::Float64(std::move(out));
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<TableChunk> FilterRows(const TableChunk& chunk, const Expr& predicate) {
  ASSIGN_OR_RETURN(Column mask, predicate.Evaluate(chunk));
  std::vector<bool> keep(chunk.num_rows());
  for (size_t i = 0; i < keep.size(); ++i) {
    keep[i] = mask.ValueAsInt64(i) != 0;
  }
  return chunk.Filter(keep);
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  switch (kind_) {
    case Kind::kColumn:
      out->insert(column_);
      break;
    case Kind::kBinary:
      left_->CollectColumns(out);
      right_->CollectColumns(out);
      break;
    default:
      break;
  }
}

Status Expr::Validate(const Schema& schema) const {
  std::set<std::string> cols;
  CollectColumns(&cols);
  for (const auto& c : cols) {
    if (schema.FieldIndex(c) < 0) {
      return Status::Invalid("expression references unknown column: " + c);
    }
  }
  return Status::OK();
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return column_;
    case Kind::kLiteralInt:
      return std::to_string(int_value_);
    case Kind::kLiteralFloat: {
      std::ostringstream os;
      os << float_value_;
      return os.str();
    }
    case Kind::kBinary:
      return "(" + left_->ToString() + " " +
             std::string(BinaryOpName(op_)) + " " + right_->ToString() + ")";
  }
  return "?";
}

void Expr::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kColumn:
      w->PutString(column_);
      break;
    case Kind::kLiteralInt:
      w->PutI64(int_value_);
      break;
    case Kind::kLiteralFloat:
      w->PutF64(float_value_);
      break;
    case Kind::kBinary:
      w->PutU8(static_cast<uint8_t>(op_));
      left_->Serialize(w);
      right_->Serialize(w);
      break;
  }
}

Result<ExprPtr> Expr::Deserialize(BinaryReader* r) {
  ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  switch (static_cast<Kind>(kind)) {
    case Kind::kColumn: {
      ASSIGN_OR_RETURN(std::string name, r->GetString());
      return Column(std::move(name));
    }
    case Kind::kLiteralInt: {
      ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return LiteralInt(v);
    }
    case Kind::kLiteralFloat: {
      ASSIGN_OR_RETURN(double v, r->GetF64());
      return LiteralFloat(v);
    }
    case Kind::kBinary: {
      ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
      if (op > static_cast<uint8_t>(BinaryOp::kOr)) {
        return Status::IOError("bad binary op in expression");
      }
      ASSIGN_OR_RETURN(ExprPtr left, Deserialize(r));
      ASSIGN_OR_RETURN(ExprPtr right, Deserialize(r));
      return Binary(static_cast<BinaryOp>(op), std::move(left),
                    std::move(right));
    }
  }
  return Status::IOError("bad expression kind");
}

namespace {

double LiteralAsDouble(const Expr& e) {
  return e.kind() == Expr::Kind::kLiteralInt
             ? static_cast<double>(e.int_value())
             : e.float_value();
}

bool IsLiteral(const ExprPtr& e) {
  return e->kind() == Expr::Kind::kLiteralInt ||
         e->kind() == Expr::Kind::kLiteralFloat;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

void Tighten(std::map<std::string, Interval>* bounds,
             const std::string& column, BinaryOp op, double literal) {
  Interval& iv = (*bounds)[column];
  switch (op) {
    case BinaryOp::kEq:
      iv.lo = std::max(iv.lo, literal);
      iv.hi = std::min(iv.hi, literal);
      break;
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      // Min/max pruning works on closed intervals; treating < as <= is a
      // safe over-approximation.
      iv.hi = std::min(iv.hi, literal);
      break;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      iv.lo = std::max(iv.lo, literal);
      break;
    default:
      break;
  }
}

void WalkConjunction(const ExprPtr& e,
                     std::map<std::string, Interval>* bounds) {
  if (e->kind() != Expr::Kind::kBinary) return;
  if (e->op() == BinaryOp::kAnd) {
    WalkConjunction(e->left(), bounds);
    WalkConjunction(e->right(), bounds);
    return;
  }
  // column <op> literal, or literal <op> column.
  if (e->left()->kind() == Expr::Kind::kColumn && IsLiteral(e->right())) {
    Tighten(bounds, e->left()->column_name(), e->op(),
            LiteralAsDouble(*e->right()));
  } else if (IsLiteral(e->left()) &&
             e->right()->kind() == Expr::Kind::kColumn) {
    Tighten(bounds, e->right()->column_name(), FlipComparison(e->op()),
            LiteralAsDouble(*e->left()));
  }
}

}  // namespace

std::map<std::string, Interval> ExtractColumnBounds(
    const ExprPtr& predicate) {
  std::map<std::string, Interval> bounds;
  if (predicate != nullptr) {
    WalkConjunction(predicate, &bounds);
  }
  return bounds;
}

}  // namespace lambada::engine
