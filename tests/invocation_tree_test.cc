#include "core/invocation_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "common/rng.h"
#include "core/driver.h"
#include "core/messages.h"
#include "core/optimizer.h"
#include "engine/chunk_serde.h"
#include "models/costmodel.h"
#include "obs/trace.h"
#include "workload/tpch.h"

namespace lambada::core {
namespace {

/// The planner's cost parameters derived the way the driver derives them.
TreeOptions OptionsFor(cloud::Cloud& cloud, int depth) {
  TreeOptions topt;
  topt.depth = depth;
  topt.cost.driver_invoke_latency_s = cloud.region().remote_invoke_latency_s;
  topt.cost.driver_rate_per_s = cloud.region().remote_client_rate_per_s;
  topt.cost.driver_threads = 128;
  topt.cost.worker_invoke_latency_s = cloud.region().intra_invoke_latency_s;
  topt.cost.worker_start_s = cloud.faas().config().cold_start_median_s +
                             cloud.faas().config().cold_init_cpu_s;
  return topt;
}

/// Expands the whole tree host-side (driver's roots, then every node's
/// children recursively) and records how often each worker id appears as
/// a node's own id (`begin`).
void ExpandTree(const TreePlan& plan, std::vector<int>* counts) {
  counts->assign(plan.workers, 0);
  std::vector<TreeNode> frontier = TreeRoots(plan);
  EXPECT_LE(frontier.size(), plan.fanout.empty() ? 0u : plan.fanout[0]);
  while (!frontier.empty()) {
    std::vector<TreeNode> next;
    for (const TreeNode& node : frontier) {
      ASSERT_LT(node.begin, plan.workers);
      ++(*counts)[node.begin];
      auto children = TreeChildren(plan, node);
      ASSERT_TRUE(children.ok()) << children.status().ToString();
      if (static_cast<int>(node.generation) < plan.depth()) {
        EXPECT_LE(children->size(), plan.fanout[node.generation])
            << "generation " << node.generation << " branching bound";
      } else {
        EXPECT_TRUE(children->empty());
      }
      for (const TreeNode& c : *children) {
        EXPECT_EQ(c.generation, node.generation + 1);
        EXPECT_GT(c.end, c.begin);
        EXPECT_LE(c.end, node.end);
        next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
}

// ---------------------------------------------------------------------------
// Planner properties
// ---------------------------------------------------------------------------

TEST(InvocationTreeTest, EveryIdExactlyOnceAcrossFleetsAndDepths) {
  // The tentpole property: for arbitrary (non-square, prime, huge) fleet
  // sizes and every supported depth, expanding the tree yields every
  // worker id exactly once — no overlaps, no holes — and every node
  // respects the plan's branching bounds. Pure arithmetic, so this also
  // certifies the partitioning is identical on the driver and worker
  // sides.
  const std::vector<uint32_t> fleets = {1,    2,    7,     100,  4095,
                                        4096, 4097, 10000, 16384};
  for (uint32_t workers : fleets) {
    for (int depth : {2, 3}) {
      TreeOptions topt;
      topt.depth = depth;
      TreePlan plan = PlanInvocationTree(workers, topt);
      ASSERT_EQ(plan.workers, workers);
      ASSERT_EQ(plan.depth(), depth);
      std::vector<int> counts;
      ExpandTree(plan, &counts);
      for (uint32_t id = 0; id < workers; ++id) {
        ASSERT_EQ(counts[id], 1)
            << "worker " << id << " of " << workers << ", depth " << depth;
      }
    }
  }
}

TEST(InvocationTreeTest, DepthTwoReproducesHistoricalSqrtGrouping) {
  // Two-level plans must keep the released invocation layout bit-for-bit:
  // group = ceil(sqrt(P)) ids per generation-1 root, fixed chunks.
  for (uint32_t workers : {5u, 36u, 100u, 4095u, 4096u, 4097u, 10000u}) {
    TreeOptions topt;
    topt.depth = 2;
    TreePlan plan = PlanInvocationTree(workers, topt);
    const uint32_t group = static_cast<uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(workers))));
    EXPECT_EQ(plan.SubtreeCapacity(1), group);
    std::vector<TreeNode> roots = TreeRoots(plan);
    ASSERT_EQ(roots.size(), (workers + group - 1) / group);
    for (size_t g = 0; g < roots.size(); ++g) {
      EXPECT_EQ(roots[g].begin, g * group);
      EXPECT_EQ(roots[g].end,
                std::min<uint32_t>((g + 1) * group, workers));
    }
  }
}

TEST(InvocationTreeTest, AutoDepthFollowsTheCostModel) {
  // The unforced planner picks the modeled-best depth: two levels for the
  // paper's 4096-worker fleet (its committed schedule), three beyond.
  cloud::Cloud cloud;
  TreeOptions topt = OptionsFor(cloud, 0);
  EXPECT_EQ(PlanInvocationTree(3, topt).depth(), 1);  // Driver-direct.
  EXPECT_EQ(PlanInvocationTree(4096, topt).depth(), 2);
  EXPECT_EQ(PlanInvocationTree(10000, topt).depth(), 3);
  EXPECT_EQ(PlanInvocationTree(16384, topt).depth(), 3);
  // The model itself orders the choice.
  for (uint32_t w : {10000u, 16384u}) {
    TreeOptions d2 = topt;
    d2.depth = 2;
    TreeOptions d3 = topt;
    d3.depth = 3;
    EXPECT_LT(models::TreeAllRunningTime(PlanInvocationTree(w, d3).fanout, w,
                                         topt.cost),
              models::TreeAllRunningTime(PlanInvocationTree(w, d2).fanout, w,
                                         topt.cost));
  }
  // Start skew is nonnegative and grows with the fleet.
  const double skew_small = models::TreeStartSkew(
      PlanInvocationTree(100, topt).fanout, 100, topt.cost);
  const double skew_big = models::TreeStartSkew(
      PlanInvocationTree(16384, topt).fanout, 16384, topt.cost);
  EXPECT_GE(skew_small, 0.0);
  EXPECT_GT(skew_big, skew_small);
}

TEST(InvocationTreeTest, SubtreesNarrowToThePayloadBound) {
  // TreeOptions::max_subtree caps what one payload carries: every
  // generation-1 subtree of the plan holds at most that many ids, a bound
  // below the depth makes the tree shallower (a depth-d subtree holds at
  // least d ids), narrowed plans still start every id exactly once within
  // their branching bounds, and a bound a forced depth already meets
  // leaves its plan as it was.
  cloud::Cloud cloud;
  for (uint32_t workers : {7u, 100u, 4096u, 10000u, 24000u}) {
    for (int depth : {0, 2, 3}) {
      TreeOptions topt = OptionsFor(cloud, depth);
      const TreePlan wide = PlanInvocationTree(workers, topt);
      for (uint32_t bound : {1u, 2u, 3u, 40u, 291u, wide.SubtreeCapacity(1)}) {
        topt.max_subtree = bound;
        const TreePlan plan = PlanInvocationTree(workers, topt);
        EXPECT_LE(plan.SubtreeCapacity(1), bound)
            << workers << " workers, depth " << depth;
        EXPECT_LE(static_cast<uint32_t>(plan.depth()), bound);
        if (depth != 0) {
          EXPECT_EQ(plan.depth(),
                    std::min(depth, static_cast<int>(bound)));
          if (bound >= wide.SubtreeCapacity(1)) {
            EXPECT_EQ(plan.fanout, wide.fanout);
          }
        }
        std::vector<int> counts;
        ExpandTree(plan, &counts);
        for (uint32_t id = 0; id < workers; ++id) {
          ASSERT_EQ(counts[id], 1) << "worker " << id << " of " << workers
                                   << ", depth " << depth << ", bound "
                                   << bound;
        }
      }
    }
  }
}

TEST(InvocationTreeTest, ForgedRangesAreLoudErrors) {
  TreeOptions topt;
  topt.depth = 3;
  TreePlan plan = PlanInvocationTree(1000, topt);
  TreeNode node;
  node.generation = 1;
  node.begin = 0;
  node.end = plan.SubtreeCapacity(1) + 5;  // Overlaps the next sibling.
  EXPECT_FALSE(TreeChildren(plan, node).ok());
  node.end = 0;  // Inverted.
  EXPECT_FALSE(TreeChildren(plan, node).ok());
  node.begin = 990;
  node.end = 1005;  // Beyond the fleet.
  EXPECT_FALSE(TreeChildren(plan, node).ok());
  node.begin = 0;
  node.end = 10;
  node.generation = 7;  // Beyond the declared depth.
  EXPECT_FALSE(TreeChildren(plan, node).ok());
  EXPECT_FALSE(TreeChildren(TreePlan{}, node).ok());  // Empty plan.
}

// ---------------------------------------------------------------------------
// Wire format: tree sections
// ---------------------------------------------------------------------------

InvocationPayload SamplePayload() {
  InvocationPayload p;
  p.query_id = "q7";
  p.total_workers = 100;
  p.plan_bucket = "sys";
  p.plan_key = "plans/q7";
  p.result_queue = "res";
  p.data_scale = 2.5;
  p.hedge_gets = true;
  p.self.worker_id = 10;
  p.self.attempt = 3;
  p.self.files = {{"data", "a.lpq"}, {"data", "b.lpq"}};
  p.self.build_files = {{"data", "o.lpq"}};
  p.self.build_counts = {1};
  return p;
}

/// Worker 10's payload in a depth-1 tree: the range is itself.
InvocationPayload DepthOnePayload() {
  InvocationPayload p = SamplePayload();
  p.tree.subtree_end = 11;
  p.tree.fanout = {100};
  return p;
}

/// A depth-2 root claiming [10, 14): its three descendants' inputs ride
/// inline, in id order.
InvocationPayload InlinePayload() {
  InvocationPayload p = SamplePayload();
  p.tree.subtree_end = 14;
  p.tree.fanout = {10, 9};
  for (uint32_t id = 11; id < 14; ++id) {
    WorkerInput in;
    in.worker_id = id;
    in.files = {{"data", "f" + std::to_string(id) + ".lpq"}};
    in.build_counts = {0};
    p.tree.descendants.push_back(in);
  }
  return p;
}

/// A depth-3 root claiming [10, 20): its nine descendants' inputs ride
/// inline, in id order, for its three gen-2 children to split.
InvocationPayload DepthThreePayload() {
  InvocationPayload p = SamplePayload();
  p.tree.subtree_end = 20;
  p.tree.fanout = {10, 3, 3};
  for (uint32_t id = 11; id < 20; ++id) {
    WorkerInput in;
    in.worker_id = id;
    in.files = {{"data", "f" + std::to_string(id) + ".lpq"}};
    in.build_files = {{"data", "o.lpq"}};
    in.build_counts = {1};
    p.tree.descendants.push_back(in);
  }
  return p;
}

void ExpectSameInput(const WorkerInput& a, const WorkerInput& b) {
  EXPECT_EQ(a.worker_id, b.worker_id);
  EXPECT_EQ(a.attempt, b.attempt);
  EXPECT_EQ(a.build_counts, b.build_counts);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(a.files[i].key, b.files[i].key);
  }
  ASSERT_EQ(a.build_files.size(), b.build_files.size());
  for (size_t i = 0; i < a.build_files.size(); ++i) {
    EXPECT_EQ(a.build_files[i].key, b.build_files[i].key);
  }
}

TEST(InvocationTreeSerdeTest, EveryDepthRoundTripsThroughTheOneLayout) {
  for (const InvocationPayload& p :
       {DepthOnePayload(), InlinePayload(), DepthThreePayload()}) {
    const std::string bytes = p.Serialize();
    auto parsed = InvocationPayload::Parse(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->query_id, "q7");
    EXPECT_EQ(parsed->total_workers, 100u);
    EXPECT_DOUBLE_EQ(parsed->data_scale, 2.5);
    EXPECT_TRUE(parsed->hedge_gets);
    ExpectSameInput(parsed->self, p.self);
    EXPECT_EQ(parsed->tree.subtree_end, p.tree.subtree_end);
    EXPECT_EQ(parsed->tree.generation, 1u);
    EXPECT_EQ(parsed->tree.fanout, p.tree.fanout);
    ASSERT_EQ(parsed->tree.descendants.size(), p.tree.descendants.size());
    for (size_t i = 0; i < p.tree.descendants.size(); ++i) {
      ExpectSameInput(parsed->tree.descendants[i], p.tree.descendants[i]);
    }
    // One format: re-serializing the parse reproduces the bytes.
    EXPECT_EQ(parsed->Serialize(), bytes);
  }
}

TEST(InvocationTreeSerdeTest, TruncatedPayloadsAreTypedErrors) {
  // Every strict truncation of a payload of every depth must be a typed
  // error — never a crash, never a silently shorter tree or input list.
  for (const InvocationPayload& p :
       {DepthOnePayload(), InlinePayload(), DepthThreePayload()}) {
    const std::string full = p.Serialize();
    for (size_t len = 0; len < full.size(); ++len) {
      auto parsed = InvocationPayload::Parse(full.substr(0, len));
      EXPECT_FALSE(parsed.ok()) << "length " << len << " of " << full.size();
    }
  }
}

TEST(InvocationTreeSerdeTest, OverlappingAndForgedRangesAreRejected) {
  auto expect_invalid = [](const InvocationPayload& p,
                           const std::string& what) {
    auto parsed = InvocationPayload::Parse(p.Serialize());
    EXPECT_FALSE(parsed.ok()) << what;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << what << ": " << parsed.status().ToString();
    }
  };
  InvocationPayload base = DepthThreePayload();
  base.tree.generation = 2;
  base.tree.subtree_end = 14;  // Capacity of a gen-2 subtree: 1+3*1 = 4.
  base.tree.descendants.resize(3);
  ASSERT_TRUE(InvocationPayload::Parse(base.Serialize()).ok());

  InvocationPayload overlap = DepthThreePayload();
  overlap.tree.generation = 2;  // 10 ids, all carried, > capacity 4.
  expect_invalid(overlap, "sibling overlap");

  InvocationPayload inverted = base;
  inverted.tree.subtree_end = 5;  // Ends before self.worker_id = 10.
  expect_invalid(inverted, "inverted range");

  InvocationPayload beyond = base;
  beyond.total_workers = 12;  // The range [10, 14) ends past the fleet.
  expect_invalid(beyond, "beyond the fleet");

  InvocationPayload deep = base;
  deep.tree.generation = 9;  // fanout declares depth 3.
  expect_invalid(deep, "generation beyond depth");

  InvocationPayload unborn = base;
  unborn.tree.generation = 0;  // The driver is generation 0, not a worker.
  expect_invalid(unborn, "generation 0");

  // A range the tree shape allows, carrying none of its inputs: without
  // the descendant count, worker 0 would hand 999,999 children out.
  InvocationPayload forged = DepthOnePayload();
  forged.total_workers = 1000000;
  forged.self.worker_id = 0;
  forged.tree.subtree_end = 1000000;
  forged.tree.fanout = {1, 1000000};
  expect_invalid(forged, "a million-id range without its inputs");
}

TEST(InvocationTreeSerdeTest, DescendantInputsMustMatchTheRange) {
  auto expect_invalid = [](const InvocationPayload& p,
                           const std::string& what) {
    auto parsed = InvocationPayload::Parse(p.Serialize());
    EXPECT_FALSE(parsed.ok()) << what;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << what << ": " << parsed.status().ToString();
    }
  };
  InvocationPayload missing = InlinePayload();
  missing.tree.descendants.pop_back();  // 2 inputs for a range of 4 ids.
  expect_invalid(missing, "descendant count below range - 1");

  InvocationPayload extra = InlinePayload();
  extra.tree.subtree_end = 13;  // 3 inputs for a range of 3 ids.
  expect_invalid(extra, "descendant count above range - 1");

  InvocationPayload swapped = InlinePayload();
  std::swap(swapped.tree.descendants[0], swapped.tree.descendants[1]);
  expect_invalid(swapped, "out-of-order descendant ids");

  InvocationPayload shifted = InlinePayload();
  for (WorkerInput& in : shifted.tree.descendants) ++in.worker_id;
  expect_invalid(shifted, "descendants of another range");

  InvocationPayload short_counts = SamplePayload();
  short_counts.tree = DepthOnePayload().tree;
  short_counts.self.build_counts = {0};  // One build file, counted zero.
  expect_invalid(short_counts, "build_counts below build_files");

  InvocationPayload long_counts = InlinePayload();
  long_counts.tree.descendants[2].build_counts = {0, 2};  // No build files.
  expect_invalid(long_counts, "descendant build_counts above build_files");
}

TEST(InvocationTreeSerdeTest, SeededFuzzNeverCrashesTheParsers) {
  // Byte-level chaos: random truncations and bit flips over valid
  // payloads of every depth, and over a two-join plan fragment, must
  // always produce either a valid parse or a typed error.
  PhysicalQuery q3;
  {
    auto planned = OptimizeQuery(
        workload::TpchQ3("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq",
                         "s3://tpch/customer/*.lpq"),
        Catalog{}, OptimizerOptions{});
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    q3 = *std::move(planned);
  }
  ASSERT_EQ(q3.fragment.JoinIndices().size(), 2u);
  const std::vector<uint8_t> plan_bytes = q3.fragment.Serialize();
  ASSERT_TRUE(
      PlanFragment::Deserialize(plan_bytes.data(), plan_bytes.size()).ok());

  const std::vector<std::string> inputs = {
      DepthOnePayload().Serialize(), InlinePayload().Serialize(),
      DepthThreePayload().Serialize(),
      std::string(plan_bytes.begin(), plan_bytes.end())};
  const size_t plan_input = inputs.size() - 1;
  Rng rng(20260808);
  std::vector<int> rejected(inputs.size(), 0);
  for (int i = 0; i < 2000; ++i) {
    for (size_t k = 0; k < inputs.size(); ++k) {
      std::string mutated = inputs[k];
      const int mutations = 1 + static_cast<int>(rng.UniformInt(0, 3));
      for (int m = 0; m < mutations; ++m) {
        const size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(mutated.size()) - 1));
        mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
      }
      if (rng.NextDouble() < 0.3) {
        mutated.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(mutated.size()))));
      }
      const bool ok =
          k == plan_input
              ? PlanFragment::Deserialize(
                    reinterpret_cast<const uint8_t*>(mutated.data()),
                    mutated.size())
                    .ok()
              : InvocationPayload::Parse(mutated).ok();
      if (!ok) ++rejected[k];
    }
  }
  for (size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_GT(rejected[k], 0) << "input " << k;
  }
}

// ---------------------------------------------------------------------------
// End to end: deep trees run real queries byte-identically
// ---------------------------------------------------------------------------

TEST(InvocationTreeQueryTest, DepthThreeMatchesDepthTwo) {
  // A real Q6 fleet forced through the depth-3 tree must produce result
  // bytes identical to the default two-level run and to flat depth-1
  // invocation, and across repeated runs (the determinism contract).
  auto run = [](int depth, std::shared_ptr<obs::Tracer>* trace) {
    cloud::Cloud cloud;
    DriverOptions dopts;
    dopts.invocation_tree_depth = depth;
    Driver driver(&cloud, dopts);
    LAMBADA_CHECK_OK(driver.Install());
    workload::LoadOptions li;
    li.num_rows = 6000;
    li.num_files = 30;
    li.row_groups_per_file = 2;
    li.seed = 17;
    LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
    auto q = workload::TpchQ6("s3://tpch/li/*.lpq");
    RunOptions ropts;
    ropts.trace.enabled = trace != nullptr;
    auto report = driver.RunToCompletion(q, ropts);
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    LAMBADA_CHECK(report->tree_depth == depth);
    if (trace != nullptr) *trace = report->trace;
    return engine::SerializeChunk(report->result);
  };
  const std::vector<uint8_t> ref = run(2, nullptr);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2, nullptr), ref);  // Repeated run, identical bytes.
  EXPECT_EQ(run(3, nullptr), ref) << "depth 3";
  EXPECT_EQ(run(1, nullptr), ref) << "depth 1";

  // Traced, the depth-3 run shows the driver's phases as back-to-back
  // spans under the root: each starts where the previous one ended, and
  // together they cover the whole query.
  std::shared_ptr<obs::Tracer> trace;
  EXPECT_EQ(run(3, &trace), ref) << "traced, depth 3";
  ASSERT_NE(trace, nullptr);
  const obs::Tracer::Span& root = trace->span(trace->root());
  std::vector<const obs::Tracer::Span*> phases;
  for (const auto& s : trace->spans()) {
    if (s.parent == root.id && s.cat == "driver") phases.push_back(&s);
  }
  const std::vector<std::string> expected = {
      "plan", "upload-plan", "invoke", "collect", "merge"};
  ASSERT_EQ(phases.size(), expected.size());
  double at = root.start;
  for (size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i]->name, expected[i]);
    EXPECT_EQ(phases[i]->start, at) << phases[i]->name;
    EXPECT_GE(phases[i]->end, phases[i]->start) << phases[i]->name;
    at = phases[i]->end;
  }
  EXPECT_EQ(at, root.end);
}


TEST(InvocationTreeQueryTest, WideInputsNarrowTheTreeToTheInvokeLimit) {
  // Every payload carries its subtree's inputs. In a Q12 fleet of 100
  // workers forced to depth 3, each input names the 24 files of the
  // broadcast orders relation, and a generation-1 root carries 31 of them
  // in 18,337 B. Under Invoke limits of 12 KiB, 2 KiB and 1.5 KiB the
  // driver narrows the subtrees to 13 and then 3 workers, and then the
  // tree to depth 2; the results stay byte-identical to the unbounded run.
  auto run = [](size_t limit) {
    cloud::CloudConfig cfg;
    cfg.faas.max_payload_bytes = limit;
    cloud::Cloud cloud(cfg);
    DriverOptions dopts;
    dopts.invocation_tree_depth = 3;
    Driver driver(&cloud, dopts);
    LAMBADA_CHECK_OK(driver.Install());
    workload::LoadOptions li;
    li.num_rows = 4000;
    li.num_files = 100;
    li.row_groups_per_file = 1;
    li.seed = 23;
    LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud.s3(), "tpch", "li/", li));
    workload::LoadOptions oo;
    oo.num_rows = workload::MaxOrderKey(workload::GenerateLineitem(4000, 23));
    oo.num_files = 24;
    oo.seed = 123;
    LAMBADA_CHECK_OK(workload::LoadOrders(&cloud.s3(), "tpch", "ord/", oo));
    auto q = workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/ord/*.lpq");
    RunOptions ropts;
    ropts.join_strategy = JoinStrategyOverride::kForceBroadcast;
    return driver.RunToCompletion(q, ropts);
  };
  auto wide = run(cloud::FaasConfig{}.max_payload_bytes);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_EQ(wide->workers, 100);
  ASSERT_EQ(wide->tree_depth, 3);
  const std::vector<uint8_t> ref = engine::SerializeChunk(wide->result);
  for (auto [limit, depth] : {std::pair<size_t, int>{12 * 1024, 3},
                               {2 * 1024, 3},
                               {1536, 2}}) {
    auto narrow = run(limit);
    ASSERT_TRUE(narrow.ok()) << limit << ": " << narrow.status().ToString();
    EXPECT_EQ(narrow->tree_depth, depth) << limit;
    EXPECT_EQ(engine::SerializeChunk(narrow->result), ref) << limit;
  }
}

}  // namespace
}  // namespace lambada::core
