#ifndef LAMBADA_ENGINE_AGGREGATE_H_
#define LAMBADA_ENGINE_AGGREGATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "engine/expr.h"
#include "engine/table.h"

namespace lambada::engine {

/// Aggregate functions. AVG is computed as SUM + COUNT in the partial
/// phase and finalized by the driver scope (the classic two-phase plan the
/// paper's data-parallel transformation produces).
enum class AggKind : uint8_t { kSum = 0, kMin, kMax, kCount, kAvg };

std::string_view AggKindName(AggKind kind);

/// One aggregate in a group-by: its function, input expression (null for
/// COUNT(*)), and output column name.
struct AggSpec {
  AggKind kind;
  ExprPtr input;  ///< May be null for kCount.
  std::string output_name;

  void Serialize(BinaryWriter* w) const;
  static Result<AggSpec> Deserialize(BinaryReader* r);
};

inline AggSpec Sum(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kSum, std::move(e), std::move(name)};
}
inline AggSpec Min(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kMin, std::move(e), std::move(name)};
}
inline AggSpec Max(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kMax, std::move(e), std::move(name)};
}
inline AggSpec Count(std::string name) {
  return AggSpec{AggKind::kCount, nullptr, std::move(name)};
}
inline AggSpec Avg(ExprPtr e, std::string name) {
  return AggSpec{AggKind::kAvg, std::move(e), std::move(name)};
}

/// Grouped hash aggregation with explicit partial/merge/final phases.
///
/// Partial state schema ("partial chunk"): the int64 group-key columns
/// followed, per aggregate, by its state columns —
///   SUM, MIN, MAX -> one float64 column
///   COUNT         -> one int64 column
///   AVG           -> one float64 sum column + one int64 count column.
/// Partial chunks are what workers ship to the driver (or through the
/// exchange); they merge associatively in any order.
class HashAggregator {
 public:
  /// `group_by`: names of int64 key columns (may be empty for a global
  /// aggregate); `aggs`: the aggregates to compute.
  HashAggregator(std::vector<std::string> group_by, std::vector<AggSpec> aggs);

  /// Consumes a chunk of raw input rows.
  Status ConsumeInput(const TableChunk& chunk);

  /// Merges a partial-state chunk produced by another aggregator.
  Status MergePartial(const TableChunk& partial);

  /// Extracts the partial state accumulated so far.
  TableChunk PartialState() const;

  /// Finalizes into the user-visible result (group keys + one column per
  /// aggregate, AVG divided out). A global aggregate (no group-by) always
  /// yields exactly one row, even over zero input rows.
  TableChunk Finalize() const;

  /// Schema of partial-state chunks for these specs.
  SchemaPtr PartialSchema() const;
  /// Schema of the final result.
  SchemaPtr FinalSchema() const;

  size_t num_groups() const { return groups_.size(); }

 private:
  struct GroupState {
    std::vector<int64_t> keys;
    std::vector<double> acc;     // One slot per state column (sums, counts
                                 // held as doubles; exact for our ranges).
    std::vector<bool> seen;      // For min/max initialization.
  };

  size_t StateWidth() const;
  GroupState& GetOrCreateGroup(const std::vector<int64_t>& keys);

  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;

  struct KeyHash {
    size_t operator()(const std::vector<int64_t>& k) const {
      size_t h = 0xcbf29ce484222325ULL;
      for (int64_t v : k) {
        h ^= static_cast<size_t>(v);
        h *= 0x100000001b3ULL;
      }
      return h;
    }
  };
  std::unordered_map<std::vector<int64_t>, size_t, KeyHash> index_;
  std::vector<GroupState> groups_;
};

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_AGGREGATE_H_
