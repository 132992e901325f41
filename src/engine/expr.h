#ifndef LAMBADA_ENGINE_EXPR_H_
#define LAMBADA_ENGINE_EXPR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/binio.h"
#include "common/status.h"
#include "engine/table.h"

namespace lambada::engine {

/// Binary operators of the expression language. Comparisons and logical
/// operators yield int64 0/1; arithmetic follows the usual numeric
/// promotion (any float operand makes the result float).
enum class BinaryOp : uint8_t {
  kAdd = 0,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

std::string_view BinaryOpName(BinaryOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// An immutable, serializable scalar expression tree. Expressions are
/// introspectable (unlike opaque UDF lambdas), which is what allows the
/// optimizer to push selections into the scan and prune row groups with
/// min/max statistics — the paper's framework achieves the same by
/// compiling Python UDFs through an inspectable IR (Section 3.2).
class Expr {
 public:
  enum class Kind : uint8_t {
    kColumn = 0,
    kLiteralInt = 1,
    kLiteralFloat = 2,
    kBinary = 3,
  };

  static ExprPtr Column(std::string name);
  static ExprPtr LiteralInt(int64_t value);
  static ExprPtr LiteralFloat(double value);
  static ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return column_; }
  int64_t int_value() const { return int_value_; }
  double float_value() const { return float_value_; }
  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Vectorized evaluation against a chunk; columns are resolved by name.
  Result<engine::Column> Evaluate(const TableChunk& chunk) const;

  /// Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  /// Validates that all referenced columns exist in `schema`.
  Status Validate(const Schema& schema) const;

  std::string ToString() const;

  void Serialize(BinaryWriter* w) const;
  static Result<ExprPtr> Deserialize(BinaryReader* r);

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteralInt;
  std::string column_;
  int64_t int_value_ = 0;
  double float_value_ = 0;
  BinaryOp op_ = BinaryOp::kAdd;
  ExprPtr left_;
  ExprPtr right_;
};

// -- Builder sugar (Listing 1 style) ----------------------------------------

inline ExprPtr Col(std::string name) { return Expr::Column(std::move(name)); }
inline ExprPtr Lit(int64_t v) { return Expr::LiteralInt(v); }
inline ExprPtr Lit(int v) { return Expr::LiteralInt(v); }
inline ExprPtr Lit(double v) { return Expr::LiteralFloat(v); }

inline ExprPtr operator+(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr operator-(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr operator*(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr operator/(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kDiv, std::move(a), std::move(b));
}
inline ExprPtr operator==(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr operator!=(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr operator<(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr operator<=(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr operator>(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr operator>=(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr operator&&(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}
inline ExprPtr operator||(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kOr, std::move(a), std::move(b));
}

/// The rows of `chunk` for which `predicate` evaluates non-zero: the one
/// filter kernel behind the scan's residual filter, plan-level filter ops
/// and driver-side HAVING.
Result<TableChunk> FilterRows(const TableChunk& chunk, const Expr& predicate);

// -- Predicate analysis for row-group pruning --------------------------------

/// A closed interval in double space; defaults to (-inf, +inf).
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  bool Intersects(double min_value, double max_value) const {
    return max_value >= lo && min_value <= hi;
  }
};

/// Extracts per-column value bounds implied by `predicate` when it holds.
/// Handles conjunctions of comparisons between a column and a literal;
/// anything else contributes no bound (safe over-approximation, so pruning
/// with these intervals never drops matching rows).
std::map<std::string, Interval> ExtractColumnBounds(const ExprPtr& predicate);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_EXPR_H_
