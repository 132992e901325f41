#ifndef LAMBADA_ENGINE_JOIN_H_
#define LAMBADA_ENGINE_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace lambada::engine {

/// Join types supported by the distributed hash join. The paper's exchange
/// operator exists to make exactly this class of operator viable on
/// serverless infrastructure (Section 4.4); inner and left-semi cover the
/// TPC-H joins we reproduce (Q12, Q14).
enum class JoinType : uint8_t {
  kInner = 0,     ///< One output row per (probe, build) key match.
  kLeftSemi = 1,  ///< Probe rows with at least one build match, probe
                  ///< columns only, each probe row at most once.
};

std::string_view JoinTypeName(JoinType type);

/// Worker-local hash join kernel: builds a hash table over `build`'s key
/// columns, probes it with `probe`'s key columns, and materializes the
/// result. Both inputs are expected to be co-partitioned by the two-sided
/// exchange, so the kernel itself is oblivious to distribution.
///
/// Output schema:
///   kInner    -> all probe columns, then all build columns except the
///                build key columns (the keys are equal by definition);
///   kLeftSemi -> the probe columns.
/// Duplicate output column names are rejected.
///
/// Key columns must be int64 on both sides and pair up positionally
/// (probe_keys[i] joins build_keys[i]).
///
/// Output rows appear in probe-row order, and the matches of one probe
/// row in build-row order.
Result<TableChunk> HashJoin(const TableChunk& probe,
                            const std::vector<int>& probe_keys,
                            const TableChunk& build,
                            const std::vector<int>& build_keys,
                            JoinType type);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_JOIN_H_
