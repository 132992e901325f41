#include "core/invocation_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace lambada::core {

namespace {

/// Fleets this small are invoked directly by the driver — a tree would
/// only add a container-start hop (matches the historical driver rule).
constexpr uint32_t kDirectInvokeMax = 4;

/// The fanout vector of one depth-`depth` plan for `workers` ids whose
/// generation-1 subtrees hold at most `max_subtree` >= `depth` ids.
std::vector<uint32_t> FanoutForDepth(uint32_t workers, int depth,
                                     uint32_t max_subtree) {
  if (depth <= 1) return {workers};
  if (depth == 2) {
    // The historical two-level grouping, byte-for-byte: group =
    // ceil(sqrt(P)) ids per generation-1 root, root included — or
    // max_subtree ids if fewer.
    const uint32_t group = std::min(
        max_subtree, static_cast<uint32_t>(
                         std::ceil(std::sqrt(static_cast<double>(workers)))));
    const uint32_t roots = (workers + group - 1) / group;
    return {roots, group - 1};
  }
  // Deeper trees: the smallest uniform inner fanout f whose f roots cover
  // the fleet, ~P^(1/depth) — every level shares the serial invoke work —
  // or, if its subtrees are too wide, the widest that fits.
  TreePlan plan;
  uint32_t f = 0;
  do {
    plan.fanout.assign(static_cast<size_t>(depth), ++f);
  } while (static_cast<uint64_t>(f) * plan.SubtreeCapacity(1) < workers);
  while (plan.SubtreeCapacity(1) > max_subtree) {
    plan.fanout.assign(static_cast<size_t>(depth), --f);
  }
  const uint64_t cap1 = plan.SubtreeCapacity(1);
  plan.fanout[0] =
      static_cast<uint32_t>((static_cast<uint64_t>(workers) + cap1 - 1) / cap1);
  return plan.fanout;
}

}  // namespace

uint32_t TreePlan::SubtreeCapacity(int generation) const {
  const int d = depth();
  if (generation < 1 || generation > d) return 0;
  uint64_t cap = 1;
  for (int g = d - 1; g >= generation; --g) {
    cap = 1 + static_cast<uint64_t>(fanout[static_cast<size_t>(g)]) * cap;
    if (cap > std::numeric_limits<uint32_t>::max()) {
      return std::numeric_limits<uint32_t>::max();
    }
  }
  return static_cast<uint32_t>(cap);
}

TreePlan PlanInvocationTree(uint32_t workers, const TreeOptions& options) {
  TreePlan plan;
  plan.workers = workers;
  if (workers == 0) return plan;
  // A depth-d subtree holds at least d ids (a chain), so a narrow bound
  // caps the depth.
  const uint32_t max_subtree = std::max<uint32_t>(options.max_subtree, 1);
  const int deepest = static_cast<int>(
      std::min<uint32_t>(max_subtree, static_cast<uint32_t>(kMaxTreeDepth)));
  int depth = std::min(std::max(0, options.depth), deepest);
  if (depth == 0) {
    depth = 1;
    if (workers > kDirectInvokeMax) {
      // Pick the depth with the best modeled all-running time; ties go to
      // the shallower tree (fewer serial container-start hops to recover
      // through).
      double best = std::numeric_limits<double>::infinity();
      for (int d = 2; d <= deepest; ++d) {
        const double t = models::TreeAllRunningTime(
            FanoutForDepth(workers, d, max_subtree), workers, options.cost);
        if (t < best) {
          best = t;
          depth = d;
        }
      }
    }
  }
  plan.fanout = FanoutForDepth(workers, depth, max_subtree);
  return plan;
}

std::vector<TreeNode> TreeRoots(const TreePlan& plan) {
  std::vector<TreeNode> roots;
  if (plan.workers == 0 || plan.fanout.empty()) return roots;
  const uint64_t cap1 = plan.SubtreeCapacity(1);
  roots.reserve(static_cast<size_t>((plan.workers + cap1 - 1) / cap1));
  for (uint64_t start = 0; start < plan.workers; start += cap1) {
    TreeNode n;
    n.begin = static_cast<uint32_t>(start);
    n.end = static_cast<uint32_t>(
        std::min<uint64_t>(start + cap1, plan.workers));
    n.generation = 1;
    roots.push_back(n);
  }
  return roots;
}

Result<std::vector<TreeNode>> TreeChildren(const TreePlan& plan,
                                           const TreeNode& node) {
  if (plan.workers == 0 || plan.fanout.empty()) {
    return Status::Invalid("empty invocation-tree plan");
  }
  const int depth = plan.depth();
  if (node.generation < 1 || static_cast<int>(node.generation) > depth) {
    return Status::Invalid("tree node generation " +
                           std::to_string(node.generation) +
                           " outside depth-" + std::to_string(depth) +
                           " plan");
  }
  if (node.end <= node.begin) {
    return Status::Invalid("empty or inverted subtree range");
  }
  if (node.end > plan.workers) {
    return Status::Invalid("subtree range [" + std::to_string(node.begin) +
                           ", " + std::to_string(node.end) +
                           ") beyond the fleet of " +
                           std::to_string(plan.workers));
  }
  const uint64_t cap = plan.SubtreeCapacity(static_cast<int>(node.generation));
  if (node.size() > cap) {
    // A range wider than the generation's capacity would overlap the next
    // sibling's claim.
    return Status::Invalid("subtree range of " + std::to_string(node.size()) +
                           " ids exceeds the generation-" +
                           std::to_string(node.generation) + " capacity of " +
                           std::to_string(cap));
  }
  std::vector<TreeNode> children;
  if (static_cast<int>(node.generation) == depth) return children;
  const uint64_t child_cap =
      plan.SubtreeCapacity(static_cast<int>(node.generation) + 1);
  for (uint64_t start = node.begin + 1; start < node.end;
       start += child_cap) {
    TreeNode c;
    c.begin = static_cast<uint32_t>(start);
    c.end =
        static_cast<uint32_t>(std::min<uint64_t>(start + child_cap, node.end));
    c.generation = node.generation + 1;
    children.push_back(c);
  }
  if (children.size() > plan.fanout[node.generation]) {
    return Status::Invalid("branching bound exceeded: " +
                           std::to_string(children.size()) +
                           " children of a generation-" +
                           std::to_string(node.generation) + " node, bound " +
                           std::to_string(plan.fanout[node.generation]));
  }
  return children;
}

sim::Async<Status> InvokeTreeChildren(cloud::WorkerEnv& env,
                                      const InvocationPayload& payload) {
  // Derive the children first: TreeChildren splits this node's range,
  // and each child takes its own inputs plus its descendants' from ours.
  TreePlan plan;
  plan.workers = payload.total_workers;
  plan.fanout = payload.tree.fanout;
  TreeNode node;
  node.begin = payload.self.worker_id;
  node.end = payload.tree.subtree_end;
  node.generation = payload.tree.generation;
  auto nodes = TreeChildren(plan, node);
  if (!nodes.ok()) co_return nodes.status();
  if (nodes->empty()) co_return Status::OK();
  const int generation = static_cast<int>(payload.tree.generation);
  const std::vector<WorkerInput>& inputs = payload.tree.descendants;
  if (inputs.size() != node.size() - 1) {
    co_return Status::Invalid("payload lacks its descendants' inputs");
  }
  InvocationPayload base = payload;
  base.tree.descendants.clear();
  std::vector<InvocationPayload> children;
  children.reserve(nodes->size());
  for (const TreeNode& c : *nodes) {
    InvocationPayload child = base;
    child.tree.subtree_end = c.end;
    child.tree.generation = c.generation;
    // Descendant i holds worker node.begin + 1 + i.
    auto first = inputs.begin() + (c.begin - node.begin - 1);
    child.self = *first;
    child.self.attempt = payload.self.attempt;
    child.tree.descendants.assign(first + 1, first + (c.end - c.begin));
    children.push_back(std::move(child));
  }

  // Invoker-loss fate: only nodes that actually invoke children consult
  // the plan's invoker stream, so leaf-heavy fleets draw nothing extra.
  cloud::CrashSite fate = cloud::CrashSite::kNone;
  if (env.fault_injector() != nullptr) {
    fate = env.fault_injector()->DrawInvokerFate(generation);
  }
  if (fate == cloud::CrashSite::kBeforeInvokingChildren) {
    env.CrashNow();
    co_return Status::OK();
  }
  size_t stop = children.size();
  if (fate == cloud::CrashSite::kWhileInvokingChildren) {
    stop = children.size() / 2;  // Die with half the branch started.
  }

  // Named lvalue: no temporary is held across the co_await below (the
  // GCC 12 rule, core/session_manager.h).
  const cloud::InvokerProfile profile = env.invoker_profile();
  for (size_t i = 0; i < children.size(); ++i) {
    if (i >= stop) {
      env.CrashNow();
      co_return Status::OK();
    }
    std::string serialized = children[i].Serialize();
    Status s = co_await env.services().faas->InvokeWithRetries(
        profile, &env.rng(), env.function_name(), std::move(serialized),
        env.attribution);
    if (!s.ok()) {
      LAMBADA_LOG(Warning) << "child invoke failed: " << s.ToString();
    }
  }
  co_return Status::OK();
}

}  // namespace lambada::core
