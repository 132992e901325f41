#ifndef LAMBADA_CORE_INVOCATION_TREE_H_
#define LAMBADA_CORE_INVOCATION_TREE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "cloud/faas.h"
#include "common/status.h"
#include "core/messages.h"
#include "models/costmodel.h"
#include "sim/async.h"

namespace lambada::core {

// N-level invocation trees (Section 4.2, generalized). The driver invokes
// the generation-1 roots; every root owns a contiguous worker-ID range
// [begin, end) with its own id at `begin`, and recursively starts the
// rest of its range through fixed-size child subtrees. The partitioning
// is pure arithmetic over (workers, fanout) — no randomness, no shared
// state — so the same plan expands to byte-identical ID ranges on every
// run, and on both the driver and worker sides.

/// Shape of one invocation tree. fanout[0] bounds the driver's direct
/// invocations (the generation-1 roots); fanout[g] bounds the children a
/// generation-g node invokes. fanout.size() is the tree depth: depth 1 is
/// flat driver-only invocation, depth 2 the paper's two-level tree.
struct TreePlan {
  uint32_t workers = 0;
  std::vector<uint32_t> fanout;

  int depth() const { return static_cast<int>(fanout.size()); }
  /// Worker IDs covered by one generation-g subtree, root included.
  /// Generation depth() covers exactly itself.
  uint32_t SubtreeCapacity(int generation) const;
};

/// Deepest tree the planner builds.
inline constexpr int kMaxTreeDepth = 3;

/// Planner inputs: a forced depth (or 0 = pick the depth whose modeled
/// all-running time is best), the largest subtree a payload can carry, and
/// the invoker-profile parameters the model runs on.
struct TreeOptions {
  /// 0 = choose automatically among [2, kMaxTreeDepth] (fleets of at most
  /// 4 workers always get depth 1); otherwise a forced depth in
  /// [1, kMaxTreeDepth].
  int depth = 0;
  /// Most worker ids one generation-1 subtree may hold. A payload carries
  /// the inputs of its whole subtree, so the driver derives this from the
  /// Invoke payload limit; plans narrow to it — more roots, a smaller
  /// inner fanout, or a shallower tree (a depth-d subtree holds at least
  /// d ids).
  uint32_t max_subtree = std::numeric_limits<uint32_t>::max();
  models::InvocationTreeParams cost;
};

/// One node of the expanded tree: its own worker id (`begin`) and the
/// contiguous ID range its subtree is responsible for starting.
struct TreeNode {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t generation = 0;  ///< 1-based; the driver is generation 0.
  uint32_t size() const { return end - begin; }
};

/// Computes the tree shape for a fleet. Depth-2 plans reproduce the
/// historical grouping exactly — group = ceil(sqrt(P)), fixed chunks of
/// `group` ids — so existing two-level fleets keep their committed
/// invocation schedules byte-for-byte; deeper plans balance the per-level
/// fanout at ~P^(1/depth). Either narrows its subtrees to
/// options.max_subtree ids when they would be wider.
TreePlan PlanInvocationTree(uint32_t workers, const TreeOptions& options = {});

/// The generation-1 roots the driver invokes, in worker-id order.
std::vector<TreeNode> TreeRoots(const TreePlan& plan);

/// The children `node` must invoke: its range minus itself, split into
/// fixed SubtreeCapacity(generation+1)-sized chunks. Rejects (Invalid)
/// nodes whose range is out of the fleet's bounds, exceeds the node's
/// generation capacity, or would need more children than the plan's
/// branching bound — the checks that make forged payload ranges a loud
/// error instead of overlapping invocations. InvocationPayload::Parse
/// applies them to every payload it accepts.
Result<std::vector<TreeNode>> TreeChildren(const TreePlan& plan,
                                           const TreeNode& node);

// -- Worker-side expansion ---------------------------------------------------

/// Invokes the children this payload is responsible for: the subtree
/// ranges TreeChildren derives from its tree assignment, each stamped with
/// the invoker's attempt and carrying its own inputs and its descendants'
/// slice of this payload's. Each child goes through
/// FaasService::InvokeWithRetries; a child that still fails is logged and
/// skipped. Consumes this node's invoker-loss fate from the region's fault
/// plan (cloud/fault.h) when one is installed: on a drawn crash the
/// environment is marked crashed — possibly after half the children went
/// out — and the caller must abandon the invocation without reporting a
/// result. Fails only on a tree assignment that does not split.
sim::Async<Status> InvokeTreeChildren(cloud::WorkerEnv& env,
                                      const InvocationPayload& payload);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_INVOCATION_TREE_H_
