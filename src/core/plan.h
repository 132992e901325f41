#ifndef LAMBADA_CORE_PLAN_H_
#define LAMBADA_CORE_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "engine/aggregate.h"
#include "engine/expr.h"
#include "engine/join.h"

namespace lambada::core {

// ---------------------------------------------------------------------------
// Serialization contract
// ---------------------------------------------------------------------------
// Plan fragments travel from the driver to workers through S3 (the payload
// carries only a pointer), so every struct below has a binary form. The
// rules:
//
//  * **One format per build.** Driver and workers always run the same
//    build (the driver uploads the plan the moment it fans out), so there
//    is no cross-version skew to tolerate and no old layout to keep: each
//    struct has exactly one field sequence, and changing it is an
//    ordinary code change on both sides at once.
//  * **Tags are discriminators.** Variant-like structs (PlanOp via its
//    `kind` byte, engine::Expr via its `Kind` byte) are told apart by a
//    one-byte tag, one tag per in-memory kind. Readers bounds-check the
//    tag and reject unknown values instead of guessing.
//  * **Parsing is strict.** Readers consume exactly the fields of the
//    format, bounds-check every count and every value a worker divides or
//    indexes by (an exchange's bucket count), and
//    `PlanFragment::Deserialize` rejects trailing bytes, so truncation or
//    overhang is a typed error.
//
// The same rules govern the SQS/Invoke messages in core/messages.h.

/// Maximum join-nesting depth a deserialized plan may have: a JoinSpec's
/// build_ops may themselves contain kJoin ops (each embedding another
/// JoinSpec), and this bounds that recursion. The limit exists so a
/// crafted or corrupted blob cannot drive the mutually recursive
/// deserializers into a stack overflow — parsing fails with a clean error
/// instead. Eight levels is far beyond what the optimizer emits (it plans
/// chained joins as a linear op sequence, not nested build pipelines).
inline constexpr int kMaxPlanDepth = 8;

/// Configuration of a serverless exchange (Section 4.4), carried inside a
/// plan fragment.
struct ExchangeSpec {
  /// Partition key column names (hash partitioning).
  std::vector<std::string> keys;
  /// Exchange rounds: 1 = a single-level exchange, 2 = TwoLevelExchange,
  /// 3 = three-level. Every round is write-combined: each sender writes
  /// one file with its part offsets in the name (Section 4.4.3).
  int levels = 2;
  /// Intermediate files are spread over this many buckets
  /// ("{bucket_prefix}-{i}"), multiplying the S3 rate limit (Section 4.4.1).
  int num_buckets = 10;
  std::string bucket_prefix = "lambada-x";
  /// Unique id of this exchange instance (query id + operator id).
  std::string exchange_id;

  void Serialize(BinaryWriter* w) const;
  /// Rejects a bucket count outside [1, INT32_MAX]: receivers hash group
  /// ids modulo it.
  static Result<ExchangeSpec> Deserialize(BinaryReader* r);
};

struct PlanOp;

/// How a join's build relation reaches the workers. The optimizer picks
/// per join from modeled exchange traffic (see core/optimizer.h).
enum class JoinStrategy : uint8_t {
  /// Two-sided partitioned exchange: both inputs hash-partition on their
  /// join keys over the same worker grid (the probe side through the
  /// kExchange op preceding the kJoin, the build side through
  /// `build_exchange`), so co-partitioned pairs meet on one worker.
  kPartitioned = 0,
  /// Broadcast: the driver ships the FULL build file list to every
  /// worker; each worker scans the whole build relation locally, so
  /// neither side runs an exchange round for this join.
  kBroadcast = 1,
};

/// Everything a kJoin operator carries: the join itself (type and key
/// pairs) plus the build side's complete scan pipeline. A join fragment is
/// therefore self-contained — one fragment, two scans. With the
/// kPartitioned strategy both sides go through hash exchanges on their
/// respective keys so that co-partitioned (probe, build) pairs land on the
/// same worker: the probe exchange is the regular kExchange op preceding
/// the kJoin, the build side's lives here as `build_exchange`. With
/// kBroadcast every worker scans the whole build relation and no exchange
/// runs for this join.
struct JoinSpec {
  engine::JoinType type = engine::JoinType::kInner;
  /// Equi-join key pairs: probe_keys[i] joins build_keys[i].
  std::vector<std::string> probe_keys;
  std::vector<std::string> build_keys;
  /// Build distribution strategy chosen by the optimizer.
  JoinStrategy strategy = JoinStrategy::kPartitioned;
  /// Ordinal of this join among the fragment's kJoin ops: selects which
  /// per-join build file list of the invocation payload feeds this join.
  int build_ordinal = 0;

  // -- Build-side input pipeline (the second scan of the fragment) --------
  /// Input file glob of the build relation. Logical-plan information: the
  /// driver expands it and ships concrete per-worker file lists in the
  /// invocation payload; workers never touch the pattern.
  std::string build_pattern;
  /// Projection/selection pushed into the build scan by the planner.
  std::vector<std::string> build_scan_projection;
  engine::ExprPtr build_scan_filter;  ///< May be null.
  /// Row-wise ops (filter/map/select only) applied to scanned build chunks
  /// before the build exchange.
  std::vector<PlanOp> build_ops;
  /// Hash exchange of the build rows on `build_keys` (planner-filled).
  ExchangeSpec build_exchange;

  void Serialize(BinaryWriter* w) const;
  /// `depth` is the number of JoinSpecs already being deserialized on the
  /// call stack; parsing fails once it reaches kMaxPlanDepth.
  static Result<JoinSpec> Deserialize(BinaryReader* r, int depth = 0);
};

/// One operator applied to chunks after the scan, in order.
///
/// Serialized as the one-byte kind tag followed by that kind's field
/// sequence (see the serialization contract above).
struct PlanOp {
  enum class Kind : uint8_t {
    kFilter = 0,     ///< Keep rows where `expr` is non-zero.
    kMap = 1,        ///< Append column `name` = `expr`.
    kSelect = 2,     ///< Narrow to `exprs` named `names`.
    kExchange = 3,   ///< Repartition across workers (pipeline breaker).
    kAggregate = 4,  ///< Grouped aggregation (terminal; workers emit
                     ///< partial state).
    kJoin = 5,       ///< Hash join against a second scan pipeline
                     ///< (pipeline breaker; see JoinSpec).
  };

  Kind kind = Kind::kFilter;
  // kFilter / kMap:
  engine::ExprPtr expr;
  std::string name;
  // kSelect:
  std::vector<engine::ExprPtr> exprs;
  std::vector<std::string> names;
  // kExchange:
  std::optional<ExchangeSpec> exchange;
  // kAggregate:
  std::vector<std::string> group_by;
  std::vector<engine::AggSpec> aggs;
  // kJoin:
  std::optional<JoinSpec> join;

  void Serialize(BinaryWriter* w) const;
  static Result<PlanOp> Deserialize(BinaryReader* r);
};

/// The executable unit shipped to serverless workers: a scan (with pushed
/// projection/selection) followed by a linear pipeline of operators. This
/// is the "serverless scope" of the paper's query plans (Section 3.2); the
/// driver-side post-processing (merging partials) is the driver scope.
/// A kJoin op embeds the build relation's scan pipeline (JoinSpec), so a
/// two-table fragment is still one linear `ops` chain on the probe side.
struct PlanFragment {
  std::vector<std::string> scan_projection;  ///< Empty = all columns.
  engine::ExprPtr scan_filter;               ///< May be null.
  std::vector<PlanOp> ops;
  /// Request ("chunk") size the scans split large reads into. The driver
  /// resolves it from the probe relation's post-encoding bytes per worker
  /// (AdaptiveChunkBytes, the Figure 7 tradeoff) before the plan is
  /// uploaded; the other scan settings are constants of engine/scan.
  int64_t chunk_bytes = 0;

  /// True if the terminal operator is an aggregation (workers then emit
  /// partial aggregate state, merged by the driver).
  bool EndsInAggregate() const {
    return !ops.empty() && ops.back().kind == PlanOp::Kind::kAggregate;
  }

  /// Index of the first kJoin op, or -1 if this is a single-table
  /// fragment.
  int JoinIndex() const {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == PlanOp::Kind::kJoin) return static_cast<int>(i);
    }
    return -1;
  }

  /// Indices of every kJoin op, in pipeline order (their build_ordinals).
  std::vector<size_t> JoinIndices() const {
    std::vector<size_t> out;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == PlanOp::Kind::kJoin) out.push_back(i);
    }
    return out;
  }

  std::vector<uint8_t> Serialize() const;
  static Result<PlanFragment> Deserialize(const uint8_t* data, size_t size);
};

}  // namespace lambada::core

#endif  // LAMBADA_CORE_PLAN_H_
