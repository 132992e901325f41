#include "core/invocation_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "common/binio.h"
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
// Wire format: tree sections and the batched input table
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

/// A depth-3 root claiming [10, 20) with batched inputs: the payload
/// carries no inputs, only the table's key.
InvocationPayload BatchedPayload() {
  InvocationPayload p = SamplePayload();
  p.self.files.clear();
  p.self.build_files.clear();
  p.self.build_counts.clear();
  p.tree.subtree_end = 20;
  p.tree.fanout = {10, 3, 3};
  p.tree.inputs_key = "plans/q7.inputs";
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
       {DepthOnePayload(), InlinePayload(), BatchedPayload()}) {
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
    EXPECT_EQ(parsed->tree.inputs_key, p.tree.inputs_key);
    ASSERT_EQ(parsed->tree.descendants.size(), p.tree.descendants.size());
    for (size_t i = 0; i < p.tree.descendants.size(); ++i) {
      ExpectSameInput(parsed->tree.descendants[i], p.tree.descendants[i]);
    }
    // One format: re-serializing the parse reproduces the bytes.
    EXPECT_EQ(parsed->Serialize(), bytes);
  }
}

TEST(InvocationTreeSerdeTest, TruncatedPayloadsAreTypedErrors) {
  // Every strict truncation of every layout must be a typed error — never
  // a crash, never a silently shorter tree or input list.
  for (const InvocationPayload& p :
       {DepthOnePayload(), InlinePayload(), BatchedPayload()}) {
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
  InvocationPayload base = BatchedPayload();
  base.tree.generation = 2;
  base.tree.subtree_end = 14;  // Capacity of a gen-2 subtree: 1+3*1 = 4.
  ASSERT_TRUE(InvocationPayload::Parse(base.Serialize()).ok());

  InvocationPayload overlap = base;
  overlap.tree.subtree_end = 20;  // 10 ids > capacity 4.
  expect_invalid(overlap, "sibling overlap");

  InvocationPayload inverted = base;
  inverted.tree.subtree_end = 5;  // Ends before self.worker_id = 10.
  expect_invalid(inverted, "inverted range");

  InvocationPayload beyond = base;
  beyond.tree.subtree_end = 300;  // total_workers is 100.
  expect_invalid(beyond, "beyond the fleet");

  InvocationPayload deep = base;
  deep.tree.generation = 9;  // fanout declares depth 3.
  expect_invalid(deep, "generation beyond depth");

  InvocationPayload unborn = base;
  unborn.tree.generation = 0;  // The driver is generation 0, not a worker.
  expect_invalid(unborn, "generation 0");
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

  InvocationPayload both = BatchedPayload();
  both.tree.subtree_end = 12;
  WorkerInput child;
  child.worker_id = 11;
  both.tree.descendants.push_back(child);  // Inline inputs and a table.
  expect_invalid(both, "descendants beside an input table");

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
  // payloads of every layout, and over a two-join plan fragment, must
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
      BatchedPayload().Serialize(),
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

TEST(InvocationTreeSerdeTest, WorkerInputTableRoundTrips) {
  std::vector<WorkerInput> inputs(5);
  for (uint32_t w = 0; w < inputs.size(); ++w) {
    inputs[w].worker_id = w;
    inputs[w].attempt = w % 2;
    inputs[w].files = {{"data", "f" + std::to_string(w) + ".lpq"}};
  }
  const std::vector<uint8_t> table = EncodeWorkerInputTable(inputs);

  BinaryReader header(table.data(), table.size());
  auto count = header.GetU32();
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(*count, inputs.size());
  const int64_t blobs_at =
      WorkerInputTableHeaderBytes(static_cast<uint32_t>(inputs.size()));
  for (uint32_t w = 0; w < inputs.size(); ++w) {
    BinaryReader offsets(table.data() + WorkerInputOffsetPos(w), 16);
    auto begin = offsets.GetU64();
    auto end = offsets.GetU64();
    ASSERT_TRUE(begin.ok() && end.ok());
    ASSERT_LT(*begin, *end);
    ASSERT_LE(blobs_at + static_cast<int64_t>(*end),
              static_cast<int64_t>(table.size()));
    auto entry = DecodeWorkerInputEntry(
        table.data() + blobs_at + static_cast<int64_t>(*begin),
        static_cast<size_t>(*end - *begin));
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    EXPECT_EQ(entry->worker_id, w);
    EXPECT_EQ(entry->attempt, w % 2);
    ASSERT_EQ(entry->files.size(), 1u);
    EXPECT_EQ(entry->files[0].key, "f" + std::to_string(w) + ".lpq");
    // Truncated entries are typed errors.
    EXPECT_FALSE(DecodeWorkerInputEntry(
                     table.data() + blobs_at + static_cast<int64_t>(*begin),
                     static_cast<size_t>(*end - *begin) - 1)
                     .ok());
  }
}

// ---------------------------------------------------------------------------
// End to end: deep batched trees run real queries byte-identically
// ---------------------------------------------------------------------------

TEST(InvocationTreeQueryTest, DepthThreeBatchedMatchesDepthTwo) {
  // A real Q6 fleet forced through the depth-3 batched tree must produce
  // result bytes identical to the default two-level run (inline inputs)
  // and to flat depth-1 invocation, and across repeated runs (the
  // determinism contract).
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
  // spans under the root, the batched tree's input-table upload included:
  // each starts where the previous one ended, and together they cover
  // the whole query.
  std::shared_ptr<obs::Tracer> trace;
  EXPECT_EQ(run(3, &trace), ref) << "traced, depth 3";
  ASSERT_NE(trace, nullptr);
  const obs::Tracer::Span& root = trace->span(trace->root());
  std::vector<const obs::Tracer::Span*> phases;
  for (const auto& s : trace->spans()) {
    if (s.parent == root.id && s.cat == "driver") phases.push_back(&s);
  }
  const std::vector<std::string> expected = {
      "plan", "upload-plan", "upload-inputs", "invoke", "collect", "merge"};
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

}  // namespace
}  // namespace lambada::core
