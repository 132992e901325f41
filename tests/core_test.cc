#include <gtest/gtest.h>

#include "test_util.h"

#include <numeric>
#include <set>

#include "cloud/cloud.h"
#include "common/rng.h"
#include "core/dataflow.h"
#include "core/driver.h"
#include "core/exchange.h"
#include "core/messages.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "core/worker.h"
#include "engine/chunk_serde.h"
#include "engine/partition.h"
#include "format/writer.h"

namespace lambada::core {
namespace {

using engine::Col;
using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Lit;
using engine::Schema;
using engine::TableChunk;

// ---------------------------------------------------------------------------
// Plan / message serialization
// ---------------------------------------------------------------------------

TEST(PlanTest, FragmentSerializationRoundTrip) {
  PlanFragment f;
  f.scan_projection = {"a", "b"};
  f.scan_filter = Col("a") >= Lit(5);
  PlanOp filter;
  filter.kind = PlanOp::Kind::kFilter;
  filter.expr = Col("b") < Lit(1.5);
  f.ops.push_back(filter);
  PlanOp map;
  map.kind = PlanOp::Kind::kMap;
  map.expr = Col("a") * Col("b");
  map.name = "ab";
  f.ops.push_back(map);
  PlanOp ex;
  ex.kind = PlanOp::Kind::kExchange;
  ExchangeSpec spec;
  spec.keys = {"a"};
  spec.levels = 2;
  spec.exchange_id = "t-x";
  ex.exchange = spec;
  f.ops.push_back(ex);
  PlanOp agg;
  agg.kind = PlanOp::Kind::kAggregate;
  agg.group_by = {"a"};
  agg.aggs = {engine::Sum(Col("ab"), "s"), engine::Count("n")};
  f.ops.push_back(agg);
  f.chunk_bytes = 123456;

  auto bytes = f.Serialize();
  auto back = PlanFragment::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->scan_projection, f.scan_projection);
  EXPECT_EQ(back->scan_filter->ToString(), f.scan_filter->ToString());
  ASSERT_EQ(back->ops.size(), 4u);
  EXPECT_EQ(back->ops[2].exchange->keys, spec.keys);
  EXPECT_EQ(back->ops[3].aggs.size(), 2u);
  EXPECT_EQ(back->chunk_bytes, 123456);
  EXPECT_TRUE(back->EndsInAggregate());
}

TEST(PlanTest, JoinFragmentSerializationRoundTrip) {
  PlanFragment f;
  f.scan_projection = {"l_orderkey", "l_shipmode"};
  PlanOp ex;
  ex.kind = PlanOp::Kind::kExchange;
  ExchangeSpec probe_spec;
  probe_spec.keys = {"l_orderkey"};
  probe_spec.exchange_id = "q-x";
  ex.exchange = probe_spec;
  f.ops.push_back(ex);
  PlanOp jop;
  jop.kind = PlanOp::Kind::kJoin;
  JoinSpec join;
  join.type = engine::JoinType::kLeftSemi;
  join.probe_keys = {"l_orderkey"};
  join.build_keys = {"o_orderkey"};
  join.build_pattern = "s3://tpch/orders/*.lpq";
  join.build_scan_projection = {"o_orderkey", "o_orderpriority"};
  join.build_scan_filter = Col("o_orderpriority") <= Lit(1);
  PlanOp bsel;
  bsel.kind = PlanOp::Kind::kSelect;
  bsel.exprs = {Col("o_orderkey")};
  bsel.names = {"o_orderkey"};
  join.build_ops.push_back(bsel);
  join.build_exchange.keys = {"o_orderkey"};
  join.build_exchange.exchange_id = "q-xb";
  jop.join = join;
  f.ops.push_back(jop);
  PlanOp agg;
  agg.kind = PlanOp::Kind::kAggregate;
  agg.group_by = {"l_shipmode"};
  agg.aggs = {engine::Count("n")};
  f.ops.push_back(agg);

  auto bytes = f.Serialize();
  auto back = PlanFragment::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->JoinIndex(), 1);
  const JoinSpec& j = *back->ops[1].join;
  EXPECT_EQ(j.type, engine::JoinType::kLeftSemi);
  EXPECT_EQ(j.probe_keys, join.probe_keys);
  EXPECT_EQ(j.build_keys, join.build_keys);
  EXPECT_EQ(j.build_pattern, join.build_pattern);
  EXPECT_EQ(j.build_scan_projection, join.build_scan_projection);
  EXPECT_EQ(j.build_scan_filter->ToString(),
            join.build_scan_filter->ToString());
  ASSERT_EQ(j.build_ops.size(), 1u);
  EXPECT_EQ(j.build_ops[0].kind, PlanOp::Kind::kSelect);
  EXPECT_EQ(j.build_exchange.exchange_id, "q-xb");
  EXPECT_TRUE(back->EndsInAggregate());
}

/// Wraps `op` in a fresh JoinSpec-carrying kJoin whose build_ops is {op}.
PlanOp NestJoin(PlanOp op) {
  JoinSpec spec;
  spec.probe_keys = {"a"};
  spec.build_keys = {"b"};
  spec.build_ops.push_back(std::move(op));
  PlanOp join;
  join.kind = PlanOp::Kind::kJoin;
  join.join = std::move(spec);
  return join;
}

TEST(PlanTest, NestedJoinWithinDepthLimitRoundTrips) {
  // A kJoin inside build_ops is representable up to kMaxPlanDepth levels;
  // whether the executor accepts a breaker there is its own check.
  JoinSpec inner_spec;
  inner_spec.probe_keys = {"a"};
  inner_spec.build_keys = {"b"};
  PlanOp inner;
  inner.kind = PlanOp::Kind::kJoin;
  inner.join = inner_spec;
  PlanFragment f;
  f.ops.push_back(NestJoin(inner));
  auto bytes = f.Serialize();
  auto back = PlanFragment::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->ops.size(), 1u);
  ASSERT_EQ(back->ops[0].join->build_ops.size(), 1u);
  EXPECT_EQ(back->ops[0].join->build_ops[0].kind, PlanOp::Kind::kJoin);
}

TEST(PlanTest, JoinNestingBeyondDepthLimitRejected) {
  // Nesting past kMaxPlanDepth must come back as a clean parse error —
  // the guard fires before the mutually recursive deserializers can smash
  // the stack on crafted input.
  JoinSpec leaf;
  leaf.probe_keys = {"a"};
  leaf.build_keys = {"b"};
  PlanOp op;
  op.kind = PlanOp::Kind::kJoin;
  op.join = leaf;
  for (int i = 0; i < kMaxPlanDepth; ++i) op = NestJoin(std::move(op));
  PlanFragment f;
  f.ops.push_back(op);
  auto bytes = f.Serialize();
  auto back = PlanFragment::Deserialize(bytes.data(), bytes.size());
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("kMaxPlanDepth"),
            std::string::npos);
}

TEST(PlanTest, UnknownOpKindRejected) {
  // A plan whose op tag is beyond the known range must be refused, not
  // guessed at — the tag-compatibility rule of plan.h.
  PlanFragment f;
  PlanOp filter;
  filter.kind = PlanOp::Kind::kFilter;
  filter.expr = Col("a") >= Lit(5);
  f.ops.push_back(filter);
  auto bytes = f.Serialize();
  // The op tag byte follows the projection vector (varint 0), the null
  // filter byte, and the op-count varint (1).
  bytes[3] = 0x7f;
  EXPECT_FALSE(PlanFragment::Deserialize(bytes.data(), bytes.size()).ok());
}

TEST(PlanTest, ExchangeBucketCountOutOfRangeRejected) {
  // Receivers pick a bucket as hash % num_buckets, and every worker runs
  // in one process: a plan from S3 with zero buckets, or with a count
  // above INT32_MAX on the u32 wire (here 0xffffffff), must fail to parse
  // instead of dividing by zero.
  for (int buckets : {0, -1}) {
    PlanOp ex;
    ex.kind = PlanOp::Kind::kExchange;
    ex.exchange = ExchangeSpec();
    ex.exchange->keys = {"a"};
    ex.exchange->num_buckets = buckets;
    PlanFragment f;
    f.ops.push_back(ex);
    auto bytes = f.Serialize();
    auto back = PlanFragment::Deserialize(bytes.data(), bytes.size());
    ASSERT_FALSE(back.ok()) << "num_buckets " << buckets;
    EXPECT_NE(back.status().message().find("bucket count"), std::string::npos)
        << back.status().ToString();
  }
}

TEST(PlanTest, CorruptFragmentRejected) {
  PlanFragment f;
  auto bytes = f.Serialize();
  EXPECT_FALSE(
      PlanFragment::Deserialize(bytes.data(), bytes.size() / 2).ok());
}

TEST(MessagesTest, PayloadRoundTrip) {
  InvocationPayload p;
  p.query_id = "q7";
  p.total_workers = 64;
  p.plan_bucket = "sys";
  p.plan_key = "plans/q7";
  p.result_queue = "results";
  p.data_scale = 12.5;
  p.self.worker_id = 3;
  p.self.files = {{"data", "part-0.lpq"}, {"data", "part-1.lpq"}};
  p.self.build_files = {{"data", "orders-0.lpq"}, {"data", "cust-0.lpq"}};
  p.self.build_counts = {1, 1};  // Two joins' build slices.
  // A payload claiming ids [3, 5) of a 64-worker depth-2 tree (fanout
  // 8x7): its one descendant's inputs ride inline.
  p.tree.subtree_end = 5;
  p.tree.fanout = {8, 7};
  WorkerInput child;
  child.worker_id = 4;
  child.files = {{"data", "part-2.lpq"}};
  child.build_files = {{"data", "orders-1.lpq"}};
  child.build_counts = {1, 0};  // Nothing for the second join.
  p.tree.descendants.push_back(child);

  auto back = InvocationPayload::Parse(p.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->query_id, "q7");
  EXPECT_EQ(back->total_workers, 64u);
  EXPECT_EQ(back->self.files[1].key, "part-1.lpq");
  ASSERT_EQ(back->self.build_files.size(), 2u);
  EXPECT_EQ(back->self.build_files[0].key, "orders-0.lpq");
  EXPECT_EQ(back->self.build_counts, (std::vector<uint32_t>{1, 1}));
  ASSERT_EQ(back->tree.descendants.size(), 1u);
  EXPECT_EQ(back->tree.descendants[0].worker_id, 4u);
  // Every WorkerInput carries one count per join, empty slices included.
  EXPECT_EQ(back->tree.descendants[0].build_counts,
            (std::vector<uint32_t>{1, 0}));
  // Build files are part of the per-worker WorkerInput, so the invocation
  // tree forwards each child its own.
  EXPECT_EQ(back->tree.descendants[0].build_files[0].key, "orders-1.lpq");
  EXPECT_DOUBLE_EQ(back->data_scale, 12.5);
}

TEST(MessagesTest, ResultRoundTripWithError) {
  ResultMessage m;
  m.query_id = "q1";
  m.worker_id = 9;
  m.status_code = StatusCode::kOutOfMemory;
  m.status_message = "boom";
  m.metrics.Set(obs::Metric::kProcessingTime, 2.5);
  m.metrics.Add(obs::Metric::kRowsScanned, 100);
  m.metrics.Add(obs::Metric::kScanBytesMoved, 123456789);
  m.metrics.Add(obs::Metric::kRowsDictFiltered, 42);
  m.metrics.Add(obs::Metric::kExchangeBytesWritten, 1000);
  m.metrics.Add(obs::Metric::kExchangeBytesRead, 2000);
  m.metrics.Observe(obs::Metric::kExchangeRoundTime, 0.02);
  m.inline_result = {1, 2, 3};
  const std::string bytes = m.Serialize();
  // The message's wire bytes, pinned: the registry's sparse sections in
  // id order (counters, the gauge, then the histogram's 12 buckets, sum
  // and count) between the envelope fields.
  static const char kPinned[] =
      "027131090000000d04626f6f6d05016400000000000000052a00000000000000"
      "0815cd5b07000000000ee8030000000000000fd0070000000000000100000000"
      "000000044001130c000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000001000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000007b14ae47e17a943f01000000000000000301020300000000"
      "0000";
  std::string hex;
  for (unsigned char c : bytes) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  EXPECT_EQ(hex, kPinned);

  auto back = ResultMessage::Parse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status_code, StatusCode::kOutOfMemory);
  EXPECT_EQ(back->inline_result, (std::vector<uint8_t>{1, 2, 3}));
  using obs::Metric;
  EXPECT_DOUBLE_EQ(back->metrics.gauge(Metric::kProcessingTime), 2.5);
  EXPECT_EQ(back->metrics.counter(Metric::kRowsScanned), 100);
  EXPECT_EQ(back->metrics.counter(Metric::kScanBytesMoved), 123456789);
  EXPECT_EQ(back->metrics.counter(Metric::kRowsDictFiltered), 42);
  EXPECT_EQ(back->metrics.counter(Metric::kExchangeBytesWritten), 1000);
  EXPECT_EQ(back->metrics.counter(Metric::kExchangeBytesRead), 2000);
  const obs::Histogram* h = back->metrics.histogram(Metric::kExchangeRoundTime);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_DOUBLE_EQ(h->sum, 0.02);
  EXPECT_EQ(back->Serialize(), bytes);
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

TEST(PlannerTest, LeadingFiltersPushIntoScan) {
  auto q = Query::FromParquet("s3://d/*.lpq")
               .Filter(Col("a") >= Lit(1))
               .Filter(Col("b") < Lit(2))
               .Aggregate({}, {engine::Count("n")});
  auto phys = OptimizeQuery(q);
  ASSERT_TRUE(phys.ok());
  ASSERT_NE(phys->fragment.scan_filter, nullptr);
  // Both filters folded into one conjunction.
  EXPECT_NE(phys->fragment.scan_filter->ToString().find("and"),
            std::string::npos);
  // Only the aggregate remains as an op.
  ASSERT_EQ(phys->fragment.ops.size(), 1u);
  EXPECT_EQ(phys->fragment.ops[0].kind, PlanOp::Kind::kAggregate);
  EXPECT_TRUE(phys->has_final_aggregate);
}

TEST(PlannerTest, ProjectionPushdownCollectsReferencedColumns) {
  auto q = Query::FromParquet("s3://d/*.lpq")
               .Filter(Col("f") > Lit(0))
               .Map(Col("x") * Col("y"), "v")
               .ReduceSum("v");
  auto phys = OptimizeQuery(q);
  ASSERT_TRUE(phys.ok());
  std::set<std::string> proj(phys->fragment.scan_projection.begin(),
                             phys->fragment.scan_projection.end());
  EXPECT_EQ(proj, (std::set<std::string>{"f", "x", "y"}));
  // The derived column "v" must not be in the scan projection.
  EXPECT_EQ(proj.count("v"), 0u);
}

TEST(PlannerTest, AggregateMustBeLast) {
  // Non-filter ops after the aggregate are rejected...
  auto q = Query::FromParquet("s3://d/*.lpq")
               .Aggregate({}, {engine::Count("n")})
               .Map(Col("n") * Lit(2), "n2");
  EXPECT_FALSE(OptimizeQuery(q).ok());
  // ...but trailing filters become driver-scope HAVING ops.
  auto having = OptimizeQuery(Query::FromParquet("s3://d/*.lpq")
                                  .Aggregate({}, {engine::Count("n")})
                                  .Filter(Col("n") > Lit(0)));
  ASSERT_TRUE(having.ok()) << having.status().ToString();
  ASSERT_EQ(having->driver_ops.size(), 1u);
  EXPECT_EQ(having->driver_ops[0].kind, PlanOp::Kind::kFilter);
  EXPECT_TRUE(having->has_final_aggregate);
  EXPECT_EQ(having->fragment.ops.back().kind, PlanOp::Kind::kAggregate);
}

TEST(PlannerTest, FilterAfterMapStaysInPipeline) {
  auto q = Query::FromParquet("s3://d/*.lpq")
               .Map(Col("x") * Lit(2), "x2")
               .Filter(Col("x2") > Lit(10));
  auto phys = OptimizeQuery(q);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(phys->fragment.scan_filter, nullptr);
  ASSERT_EQ(phys->fragment.ops.size(), 2u);
  EXPECT_EQ(phys->fragment.ops[0].kind, PlanOp::Kind::kMap);
  EXPECT_EQ(phys->fragment.ops[1].kind, PlanOp::Kind::kFilter);
}

TEST(PlannerTest, JoinInsertsTwoSidedExchange) {
  auto build = Query::FromParquet("s3://d/orders/*.lpq")
                   .Filter(Col("o_orderpriority") <= Lit(1))
                   .Select({Col("o_orderkey"), Col("o_orderpriority")},
                           {"o_orderkey", "o_orderpriority"});
  auto q = Query::FromParquet("s3://d/li/*.lpq")
               .Filter(Col("l_shipmode") == Lit(2))
               .JoinWith(build, {"l_orderkey"}, {"o_orderkey"})
               .Aggregate({"l_shipmode"},
                          {engine::Sum(Col("o_orderpriority"), "s")});
  auto phys = OptimizeQuery(q);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_EQ(phys->build_inputs.size(), 1u);
  EXPECT_EQ(phys->build_inputs[0].pattern, "s3://d/orders/*.lpq");
  EXPECT_FALSE(phys->build_inputs[0].broadcast);
  // Probe pipeline: filter pushed into the scan, then exchange -> join ->
  // aggregate.
  ASSERT_NE(phys->fragment.scan_filter, nullptr);
  ASSERT_EQ(phys->fragment.ops.size(), 3u);
  EXPECT_EQ(phys->fragment.ops[0].kind, PlanOp::Kind::kExchange);
  EXPECT_EQ(phys->fragment.ops[0].exchange->keys,
            (std::vector<std::string>{"l_orderkey"}));
  EXPECT_EQ(phys->fragment.ops[1].kind, PlanOp::Kind::kJoin);
  EXPECT_EQ(phys->fragment.ops[2].kind, PlanOp::Kind::kAggregate);
  const JoinSpec& join = *phys->fragment.ops[1].join;
  EXPECT_EQ(join.build_exchange.keys,
            (std::vector<std::string>{"o_orderkey"}));
  // Build-side pushdown: the filter moved into the build scan, and the
  // closed Select output lets both projections be exact.
  ASSERT_NE(join.build_scan_filter, nullptr);
  ASSERT_EQ(join.build_ops.size(), 1u);
  EXPECT_EQ(join.build_ops[0].kind, PlanOp::Kind::kSelect);
  EXPECT_EQ(join.build_scan_projection,
            (std::vector<std::string>{"o_orderkey", "o_orderpriority"}));
  std::set<std::string> probe_proj(phys->fragment.scan_projection.begin(),
                                   phys->fragment.scan_projection.end());
  EXPECT_EQ(probe_proj,
            (std::set<std::string>{"l_orderkey", "l_shipmode"}));
  EXPECT_TRUE(phys->has_final_aggregate);
}

TEST(PlannerTest, JoinWithoutClosedBuildOutputScansEverything) {
  // No terminal Select on the build side: post-join references cannot be
  // attributed to a side, so both scans read all columns.
  auto build = Query::FromParquet("s3://d/orders/*.lpq");
  auto q = Query::FromParquet("s3://d/li/*.lpq")
               .JoinWith(build, {"l_orderkey"}, {"o_orderkey"})
               .Aggregate({}, {engine::Sum(Col("o_totalprice"), "s")});
  auto phys = OptimizeQuery(q);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_TRUE(phys->fragment.scan_projection.empty());
  const JoinSpec& join = *phys->fragment.ops[phys->fragment.JoinIndex()]
                              .join;
  EXPECT_TRUE(join.build_scan_projection.empty());
}

TEST(PlannerTest, JoinProvidedColumnsRespectJoinType) {
  // A probe column may share its name with a build output ("w"). A
  // left-semi join drops ALL build columns, so the post-join reference
  // must read probe's own "w"; an inner join's dropped build key ("dg")
  // likewise stays attributable to the probe scan.
  auto build = Query::FromParquet("s3://d/dim/*.lpq")
                   .Select({Col("dg"), Col("w")}, {"dg", "w"});
  auto semi = OptimizeQuery(Query::FromParquet("s3://d/t/*.lpq")
                                .JoinWith(build, {"g"}, {"dg"},
                                          engine::JoinType::kLeftSemi)
                                .Aggregate({}, {engine::Sum(Col("w"), "s")}));
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  std::set<std::string> semi_proj(semi->fragment.scan_projection.begin(),
                                  semi->fragment.scan_projection.end());
  EXPECT_EQ(semi_proj, (std::set<std::string>{"g", "w"}));

  auto inner = OptimizeQuery(Query::FromParquet("s3://d/t/*.lpq")
                                 .JoinWith(build, {"g"}, {"dg"})
                                 .Aggregate({"dg"}, {engine::Sum(Col("w"),
                                                                 "s")}));
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  std::set<std::string> inner_proj(
      inner->fragment.scan_projection.begin(),
      inner->fragment.scan_projection.end());
  // "w" comes from the build side (provided); the dropped build key "dg"
  // referenced post-join must come from the probe scan.
  EXPECT_EQ(inner_proj, (std::set<std::string>{"dg", "g"}));
}

TEST(PlannerTest, JoinRejections) {
  auto build = Query::FromParquet("s3://d/b/*.lpq");
  // Two joins now plan as a chained fragment (the cost-based optimizer's
  // multi-join path).
  auto two = OptimizeQuery(Query::FromParquet("s3://d/a/*.lpq")
                               .JoinWith(build, {"k"}, {"k2"})
                               .JoinWith(build, {"k"}, {"k2"}));
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two->fragment.JoinIndices().size(), 2u);
  ASSERT_EQ(two->build_inputs.size(), 2u);
  // Explicit repartition before the join.
  EXPECT_FALSE(OptimizeQuery(Query::FromParquet("s3://d/a/*.lpq")
                                 .Repartition({"k"})
                                 .JoinWith(build, {"k"}, {"k2"}))
                   .ok());
  // Aggregating build side.
  EXPECT_FALSE(
      OptimizeQuery(Query::FromParquet("s3://d/a/*.lpq")
                        .JoinWith(build.Aggregate({}, {engine::Count("n")}),
                                  {"k"}, {"k2"}))
          .ok());
  // Build-side Select that drops the build key.
  EXPECT_FALSE(
      OptimizeQuery(Query::FromParquet("s3://d/a/*.lpq")
                        .JoinWith(build.Select({Col("v")}, {"v"}), {"k"},
                                  {"k2"}))
          .ok());
  // Probe-side Select that drops the probe key: caught at plan time, not
  // after the fleet is already running.
  EXPECT_FALSE(
      OptimizeQuery(Query::FromParquet("s3://d/a/*.lpq")
                        .Select({Col("v")}, {"v"})
                        .JoinWith(build.Select({Col("k2")}, {"k2"}), {"k"},
                                  {"k2"}))
          .ok());
}

// ---------------------------------------------------------------------------
// Cost-based optimizer
// ---------------------------------------------------------------------------

TEST(OptimizerTest, NoInformationKeepsSyntaxOrderDeterministically) {
  auto b1 = Query::FromParquet("s3://d/b1/*.lpq")
                .Select({Col("k2"), Col("v")}, {"k2", "v"});
  auto b2 = Query::FromParquet("s3://d/b2/*.lpq")
                .Select({Col("j2"), Col("w")}, {"j2", "w"});
  auto q = Query::FromParquet("s3://d/a/*.lpq")
               .JoinWith(b1, {"k"}, {"k2"})
               .JoinWith(b2, {"j"}, {"j2"})
               .ReduceCount();
  auto a = OptimizeQuery(q, Catalog{}, OptimizerOptions{});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_EQ(a->build_inputs.size(), 2u);
  // Without statistics every alternative costs the same; ties preserve
  // the query's syntax order and fall back to partitioned exchanges.
  EXPECT_EQ(a->build_inputs[0].pattern, "s3://d/b1/*.lpq");
  EXPECT_EQ(a->build_inputs[1].pattern, "s3://d/b2/*.lpq");
  for (const auto& c : a->join_choices) EXPECT_FALSE(c.broadcast);
  // The whole decision chain is deterministic: a second run renders the
  // byte-identical plan.
  auto b = OptimizeQuery(q, Catalog{}, OptimizerOptions{});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->explain_text, b->explain_text);
  EXPECT_FALSE(a->explain_text.empty());
}

TEST(OptimizerTest, KeyProvenanceConstrainsJoinOrder) {
  // The second join's probe key (ck) is emitted by the FIRST join's build
  // side, so no ordering may schedule it first — even though its build
  // relation is far smaller and the DP would otherwise prefer it.
  auto orders = Query::FromParquet("s3://d/orders/*.lpq")
                    .Select({Col("ok"), Col("ck")}, {"ok", "ck"});
  auto customer = Query::FromParquet("s3://d/customer/*.lpq")
                      .Select({Col("ck2")}, {"ck2"});
  auto q = Query::FromParquet("s3://d/li/*.lpq")
               .JoinWith(orders, {"k"}, {"ok"})
               .JoinWith(customer, {"ck"}, {"ck2"}, engine::JoinType::kLeftSemi)
               .ReduceCount();
  Catalog catalog;
  catalog.relations["s3://d/li/*.lpq"] = {1e7, 1e9, 16, {}};
  catalog.relations["s3://d/orders/*.lpq"] = {1e6, 1e8, 8, {}};
  catalog.relations["s3://d/customer/*.lpq"] = {100, 1e3, 1, {}};
  OptimizerOptions oo;
  oo.workers = 8;
  auto a = OptimizeQuery(q, catalog, oo);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_EQ(a->build_inputs.size(), 2u);
  EXPECT_EQ(a->build_inputs[0].pattern, "s3://d/orders/*.lpq");
  EXPECT_EQ(a->build_inputs[1].pattern, "s3://d/customer/*.lpq");
  // The tiny customer relation broadcasts; its estimates made it into the
  // decision record.
  ASSERT_EQ(a->join_choices.size(), 2u);
  EXPECT_TRUE(a->join_choices[1].broadcast);
  EXPECT_GT(a->join_choices[1].broadcast_usd, 0.0);
  EXPECT_GT(a->join_choices[1].partitioned_usd,
            a->join_choices[1].broadcast_usd);
}

TEST(OptimizerTest, SelectivityEstimates) {
  std::map<std::string, engine::Interval> cols;
  cols["x"] = {0.0, 100.0};
  // Range predicate interpolates into the bounds: x < 25 on [0,100] ~ 1/4.
  double quarter =
      EstimateSelectivity(Col("x") < engine::Lit(25.0), cols, 1000);
  EXPECT_NEAR(quarter, 0.25, 0.05);
  // Conjunction multiplies, so it can only shrink.
  double both = EstimateSelectivity(
      Col("x") < engine::Lit(25.0) && Col("x") >= engine::Lit(0.0), cols,
      1000);
  EXPECT_LE(both, quarter + 1e-9);
  // Disjunction grows but stays a probability.
  double either = EstimateSelectivity(
      Col("x") < engine::Lit(25.0) || Col("x") > engine::Lit(90.0), cols,
      1000);
  EXPECT_GE(either, quarter - 1e-9);
  EXPECT_LE(either, 1.0);
}

// ---------------------------------------------------------------------------
// Exchange factorization
// ---------------------------------------------------------------------------

TEST(ExchangeFactorTest, ExactProducts) {
  for (int P : {4, 16, 64, 100, 250, 320, 500, 1000, 1250, 2500, 4096}) {
    for (int levels : {1, 2}) {
      auto f = FactorizeWorkers(P, levels);
      ASSERT_TRUE(f.ok()) << "P=" << P << " levels=" << levels;
      int prod = 1;
      for (int s : *f) prod *= s;
      EXPECT_EQ(prod, P);
      EXPECT_EQ(f->size(), static_cast<size_t>(levels));
    }
  }
  auto f3 = FactorizeWorkers(1000, 3);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ((*f3)[0] * (*f3)[1] * (*f3)[2], 1000);
}

TEST(ExchangeFactorTest, BalancedNearRoot) {
  auto f = FactorizeWorkers(2500, 2);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)[0], 50);
  EXPECT_EQ((*f)[1], 50);
  auto g = FactorizeWorkers(4096, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((*g)[0], 16);
}

TEST(ExchangeFactorTest, LargePrimesRejected) {
  EXPECT_FALSE(FactorizeWorkers(997, 2).ok());
  EXPECT_GT(LargestFactorizableWorkerCount(997, 2), 900);
}

TEST(ExchangeFactorTest, RequestCountModelMatchesTable2) {
  // Table 2: 1l -> P^2 reads and writes; 2l -> 2P*sqrt(P); write combining
  // drops writes to (levels * P).
  auto c1 = PredictExchangeRequests(100, 1, false);
  EXPECT_DOUBLE_EQ(c1.reads, 100.0 * 100.0);
  EXPECT_DOUBLE_EQ(c1.writes, 100.0 * 100.0);
  auto c2 = PredictExchangeRequests(100, 2, false);
  EXPECT_DOUBLE_EQ(c2.reads, 2.0 * 100.0 * 10.0);
  auto c2wc = PredictExchangeRequests(100, 2, true);
  EXPECT_DOUBLE_EQ(c2wc.writes, 200.0);
  auto c3 = PredictExchangeRequests(1000, 3, false);
  EXPECT_NEAR(c3.reads, 3.0 * 1000.0 * 10.0, 1e-6);
}

// ---------------------------------------------------------------------------
// End-to-end exchange on simulated workers
// ---------------------------------------------------------------------------

struct ExchangeResult {
  std::vector<TableChunk> outputs;  // Per worker.
  Status status = Status::OK();
};

/// Runs a P-worker exchange where worker p holds rows with values
/// p*rows_per_worker..(p+1)*rows_per_worker-1, then checks that every row
/// arrived at exactly the worker its hash designates.
ExchangeResult RunExchangeExperiment(int P, ExchangeSpec spec,
                                     int rows_per_worker = 200) {
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = P + 10;
  cloud::Cloud cloud(cfg);
  LAMBADA_CHECK_OK(CreateExchangeBuckets(&cloud.s3(), spec));
  spec.exchange_id = "test-x";

  ExchangeResult result;
  result.outputs.resize(static_cast<size_t>(P));
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});

  cloud::FunctionConfig fn;
  fn.name = "xworker";
  fn.memory_mib = 2048;
  fn.handler = [&, schema](cloud::WorkerEnv& env,
                           std::string payload) -> sim::Async<Status> {
    int p = std::stoi(payload);
    std::vector<int64_t> keys;
    std::vector<double> vals;
    for (int i = 0; i < rows_per_worker; ++i) {
      int64_t k = static_cast<int64_t>(p) * rows_per_worker + i;
      keys.push_back(k);
      vals.push_back(static_cast<double>(k) * 0.5);
    }
    TableChunk input(schema, {Column::Int64(std::move(keys)),
                              Column::Float64(std::move(vals))});
    auto out = co_await RunExchange(env, spec, p, P, std::move(input));
    if (!out.ok()) {
      if (result.status.ok()) result.status = out.status();
      co_return out.status();
    }
    result.outputs[static_cast<size_t>(p)] = *std::move(out);
    co_return Status::OK();
  };
  LAMBADA_CHECK_OK(cloud.faas().CreateFunction(fn));
  for (int p = 0; p < P; ++p) {
    sim::Spawn([](cloud::Cloud* c, int worker) -> sim::Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "xworker",
                                std::to_string(worker));
    }(&cloud, p));
  }
  cloud.sim().Run();
  return result;
}

void CheckExchangeCorrect(int P, const ExchangeResult& r,
                          int rows_per_worker) {
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  int64_t total = 0;
  std::set<int64_t> seen;
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  for (int p = 0; p < P; ++p) {
    const TableChunk& out = r.outputs[static_cast<size_t>(p)];
    total += static_cast<int64_t>(out.num_rows());
    if (out.num_rows() == 0) continue;
    int k_idx = out.schema()->FieldIndex("k");
    ASSERT_GE(k_idx, 0);
    for (size_t i = 0; i < out.num_rows(); ++i) {
      int64_t k = out.column(static_cast<size_t>(k_idx)).i64()[i];
      // Row must be at the worker its hash designates.
      TableChunk probe(schema, {Column::Int64({k}), Column::Float64({0})});
      auto ids = engine::ComputePartitionIds(probe, {0}, P);
      ASSERT_TRUE(ids.ok());
      EXPECT_EQ(static_cast<int>((*ids)[0]), p) << "key " << k;
      EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
    }
  }
  EXPECT_EQ(total, static_cast<int64_t>(P) * rows_per_worker);
}

struct ExchangeVariant {
  int levels;
  int P;
};

class ExchangeVariantTest
    : public ::testing::TestWithParam<ExchangeVariant> {};

INSTANTIATE_TEST_SUITE_P(
    Variants, ExchangeVariantTest,
    ::testing::Values(ExchangeVariant{1, 9}, ExchangeVariant{2, 16},
                      ExchangeVariant{2, 20},   // Non-square.
                      ExchangeVariant{3, 27},
                      ExchangeVariant{3, 30}),  // Mixed radix.
    [](const auto& info) {
      const auto& v = info.param;
      return std::to_string(v.levels) + "lP" + std::to_string(v.P);
    });

TEST_P(ExchangeVariantTest, AllRowsReachTheirPartition) {
  const auto& v = GetParam();
  ExchangeSpec spec;
  spec.keys = {"k"};
  spec.levels = v.levels;
  spec.num_buckets = 4;
  auto result = RunExchangeExperiment(v.P, spec, 100);
  CheckExchangeCorrect(v.P, result, 100);
}

TEST(ExchangeTest, RequestCountsMatchModel) {
  // 2l-wc on a 16-worker grid: Table 2 predicts 2*P*sqrt(P) reads
  // (= 128 GETs) and 2P writes (= 32 PUTs). Our implementation skips GETs
  // for empty slices, so reads are bounded above by the model.
  cloud::Cloud cloud;
  ExchangeSpec spec;
  spec.keys = {"k"};
  spec.levels = 2;
  spec.num_buckets = 4;
  LAMBADA_CHECK_OK(CreateExchangeBuckets(&cloud.s3(), spec));
  // Re-run the experiment inline to capture this cloud's ledger.
  // (RunExchangeExperiment owns its own cloud, so replicate briefly.)
  spec.exchange_id = "cnt-x";
  const int P = 16;
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}});
  cloud::FunctionConfig fn;
  fn.name = "xw";
  fn.memory_mib = 2048;
  fn.handler = [&, schema](cloud::WorkerEnv& env,
                           std::string payload) -> sim::Async<Status> {
    int p = std::stoi(payload);
    std::vector<int64_t> keys;
    for (int i = 0; i < 500; ++i) {
      keys.push_back(static_cast<int64_t>(p) * 500 + i);
    }
    TableChunk input(schema, {Column::Int64(std::move(keys))});
    auto out = co_await RunExchange(env, spec, p, P, std::move(input));
    co_return out.ok() ? Status::OK() : out.status();
  };
  LAMBADA_CHECK_OK(cloud.faas().CreateFunction(fn));
  for (int p = 0; p < P; ++p) {
    sim::Spawn([](cloud::Cloud* c, int worker) -> sim::Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "xw",
                                std::to_string(worker));
    }(&cloud, p));
  }
  cloud.sim().Run();
  EXPECT_EQ(cloud.faas().failed_handlers(), 0);
  auto t = cloud.ledger().totals();
  auto model = PredictExchangeRequests(P, 2, /*write_combining=*/true);
  EXPECT_EQ(t.s3_put_requests, static_cast<int64_t>(model.writes));
  EXPECT_LE(t.s3_get_requests, static_cast<int64_t>(model.reads));
  EXPECT_GT(t.s3_get_requests, static_cast<int64_t>(model.reads) / 2);
  EXPECT_GE(t.s3_list_requests, static_cast<int64_t>(model.lists));
}

/// Outcome of a single-level exchange over one group of workers.
struct GroupRun {
  std::string foreign_key;  ///< Key of the planted foreign file, if any.
  std::vector<Status> statuses;
  std::vector<int64_t> lists;      ///< LIST requests per worker.
  std::vector<double> finished_s;  ///< When each worker's exchange returned.
  double end_s = 0;                ///< When the simulation drained.
};

/// Runs a 1-level exchange over `P` workers in one bucket. Unless
/// `foreign_name` is empty, a 1-byte file of that name sits under the
/// group's prefix first; unless `silent` is -1, that worker never enters
/// the exchange, so it never writes.
GroupRun RunOneGroup(int P, const std::string& foreign_name, int silent) {
  cloud::Cloud cloud;
  ExchangeSpec spec;
  spec.keys = {"k"};
  spec.levels = 1;
  spec.num_buckets = 1;
  LAMBADA_CHECK_OK(CreateExchangeBuckets(&cloud.s3(), spec));
  spec.exchange_id = "grp-x";
  GroupRun run;
  run.statuses.assign(static_cast<size_t>(P), Status::OK());
  run.lists.assign(static_cast<size_t>(P), 0);
  run.finished_s.assign(static_cast<size_t>(P), -1);
  if (!foreign_name.empty()) {
    run.foreign_key = "grp-x/ph0/g0/" + foreign_name;
    LAMBADA_CHECK_OK(cloud.s3().PutDirect(spec.bucket_prefix + "-0",
                                          run.foreign_key,
                                          Buffer::FromVector({1})));
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}});
  cloud::FunctionConfig fn;
  fn.name = "xw";
  fn.memory_mib = 2048;
  fn.handler = [&, schema](cloud::WorkerEnv& env,
                           std::string payload) -> sim::Async<Status> {
    const int p = std::stoi(payload);
    if (p == silent) co_return Status::OK();
    TableChunk input(schema, {Column::Int64({p})});
    ExchangeMetrics xm;
    auto out = co_await RunExchange(env, spec, p, P, std::move(input), &xm);
    const auto i = static_cast<size_t>(p);
    run.statuses[i] = out.status();
    run.lists[i] = xm.registry.counter(obs::Metric::kExchangeListRequests);
    run.finished_s[i] = env.sim()->Now();
    co_return Status::OK();
  };
  LAMBADA_CHECK_OK(cloud.faas().CreateFunction(fn));
  for (int p = 0; p < P; ++p) {
    sim::Spawn([](cloud::Cloud* c, int worker) -> sim::Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), "xw",
                                std::to_string(worker));
    }(&cloud, p));
  }
  cloud.sim().Run();
  run.end_s = cloud.sim().Now();
  return run;
}

TEST(ExchangeTest, MissingSenderTimesOutNamingThePhase) {
  // Worker 1 of a 3-worker group never writes: its peers poll LIST until
  // the 600 s barrier timeout and fail with a Timeout naming the phase.
  const GroupRun run = RunOneGroup(3, "", 1);
  for (size_t p : {0, 2}) {
    const Status& st = run.statuses[p];
    EXPECT_EQ(st.code(), StatusCode::kTimeout) << st.ToString();
    EXPECT_NE(st.message().find("phase 0"), std::string::npos)
        << st.ToString();
    EXPECT_GE(run.finished_s[p], 600.0);
  }
}

TEST(ExchangeTest, ForeignNameInGroupPrefixFailsOnFirstList) {
  // A name under a group's prefix that no sender writes (no sender index,
  // an index outside the group, offsets that do not decode, a sender's
  // name whose offsets disagree with the 1-byte file's size, or a second
  // file for sender 0) can never complete the barrier: the receiver fails
  // on the first LIST that shows it, with an IOError naming the key,
  // instead of polling until the exchange timeout.
  for (const std::string name : {"s-o0", "s7-data", "s1-o5", "s0-o0.0.0",
                                 "s1-o0.0.0", "s0-o0.0.1"}) {
    const GroupRun run = RunOneGroup(2, name, -1);
    for (size_t p = 0; p < run.statuses.size(); ++p) {
      const Status& st = run.statuses[p];
      EXPECT_EQ(st.code(), StatusCode::kIOError) << name << ": "
                                                 << st.ToString();
      EXPECT_NE(st.message().find(run.foreign_key), std::string::npos)
          << st.ToString();
      EXPECT_EQ(run.lists[p], 1) << name;
    }
    EXPECT_LT(run.end_s, 10.0) << name;
  }
}

TEST(ExchangeTest, WrappingOffsetsFailOnFirstList) {
  // Sender 1 never writes, so this file could stand in for it: its
  // offsets end at its 1-byte size only because they wrap past 2^64, and
  // the range they give receiver 0 (offset 1, length 2^63 - 1) would
  // overflow the ranged GET. It is rejected like any foreign name.
  const GroupRun run =
      RunOneGroup(2, "s1-o1.7fffffffffffffff.8000000000000001", 1);
  const Status& st = run.statuses[0];
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.message().find(run.foreign_key), std::string::npos)
      << st.ToString();
  EXPECT_EQ(run.lists[0], 1);
  EXPECT_LT(run.end_s, 10.0);
}

// ---------------------------------------------------------------------------
// Driver end-to-end
// ---------------------------------------------------------------------------

class DriverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cloud_ = std::make_unique<cloud::Cloud>();
    driver_ = std::make_unique<Driver>(cloud_.get());
    ASSERT_TRUE(driver_->Install().ok());
    ASSERT_TRUE(cloud_->s3().CreateBucket("data").ok());
    // 4 files of a simple (g, x) table: g in 0..3, x = row index.
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"g", DataType::kInt64}, {"x", DataType::kFloat64}});
    Rng rng(3);
    for (int f = 0; f < 4; ++f) {
      std::vector<int64_t> g;
      std::vector<double> x;
      for (int i = 0; i < 1000; ++i) {
        int64_t key = rng.UniformInt(0, 3);
        g.push_back(key);
        double val = static_cast<double>(f * 1000 + i);
        x.push_back(val);
        expected_sum_[key] += val;
        expected_count_[key] += 1;
        total_sum_ += val;
        if (key == 2 && val < 250.0) expected_g2_small_ += val;
      }
      TableChunk t(schema, {Column::Int64(std::move(g)),
                            Column::Float64(std::move(x))});
      format::WriterOptions wo;
      wo.row_group_rows = 250;
      auto file = format::FileWriter::WriteTable(t, wo);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(cloud_->s3()
                      .PutDirect("data",
                                 "t/part-" + std::to_string(f) + ".lpq",
                                 Buffer::FromVector(*std::move(file)))
                      .ok());
    }
    // One dimension file (dg, w): dg = 0..3, w = dg * 10. A single build
    // file also exercises workers whose build scan is empty.
    auto dim_schema = std::make_shared<Schema>(std::vector<Field>{
        {"dg", DataType::kInt64}, {"w", DataType::kFloat64}});
    TableChunk dim(dim_schema, {Column::Int64({0, 1, 2, 3}),
                                Column::Float64({0, 10, 20, 30})});
    auto dim_file =
        format::FileWriter::WriteTable(dim, format::WriterOptions{});
    ASSERT_TRUE(dim_file.ok());
    ASSERT_TRUE(cloud_->s3()
                    .PutDirect("data", "dim/part-0.lpq",
                               Buffer::FromVector(*std::move(dim_file)))
                    .ok());
  }

  /// The dimension table as a build-side query with a closed output set.
  static Query DimQuery() {
    return Query::FromParquet("s3://data/dim/*.lpq")
        .Select({Col("dg"), Col("w")}, {"dg", "w"});
  }

  std::unique_ptr<cloud::Cloud> cloud_;
  std::unique_ptr<Driver> driver_;
  std::map<int64_t, double> expected_sum_;
  std::map<int64_t, int64_t> expected_count_;
  double total_sum_ = 0;
  double expected_g2_small_ = 0;
};

TEST_F(DriverFixture, GroupedAggregateAcrossWorkers) {
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .Aggregate({"g"}, {engine::Sum(Col("x"), "s"),
                                  engine::Count("n")});
  RunOptions opts;
  opts.files_per_worker = 1;
  auto report = driver_->RunToCompletion(q, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->workers, 4);
  const TableChunk& r = report->result;
  ASSERT_EQ(r.num_rows(), 4u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    int64_t g = r.column(0).i64()[i];
    EXPECT_NEAR(r.column(1).f64()[i], expected_sum_[g], 1e-6);
    EXPECT_EQ(r.column(2).i64()[i], expected_count_[g]);
  }
  EXPECT_GT(report->latency_s, 0);
  EXPECT_GT(report->cost.lambda_gib_seconds, 0);
  EXPECT_EQ(report->cost.lambda_invocations, 4);
  // Every worker reports the real bytes its scan moved.
  for (const auto& wr : report->worker_results) {
    EXPECT_GT(wr.metrics.counter(obs::Metric::kScanBytesMoved), 0);
  }
}

TEST(PlannerTest, AdaptiveChunkBytesFollowsFigure7) {
  constexpr int64_t kMiB = 1024 * 1024;
  // One connection on a big scan: the bandwidth-saturating 16 MiB knee.
  EXPECT_EQ(AdaptiveChunkBytes(1000 * kMiB, 1), 16 * kMiB);
  // k connections pipeline their request latencies: chunk divides by k.
  EXPECT_EQ(AdaptiveChunkBytes(1000 * kMiB, 4), 4 * kMiB);
  // Small per-worker scans shrink toward 1/8 of their bytes...
  EXPECT_EQ(AdaptiveChunkBytes(32 * kMiB, 1), 4 * kMiB);
  // ...but never below the 1 MiB request-cost floor.
  EXPECT_EQ(AdaptiveChunkBytes(2 * kMiB, 1), kMiB);
  EXPECT_EQ(AdaptiveChunkBytes(0, 1), 16 * kMiB);  // Unknown stats.
  EXPECT_EQ(AdaptiveChunkBytes(1000 * kMiB, 64), kMiB);  // Floor again.
}

TEST_F(DriverFixture, FilterMapReduce) {
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .Filter(Col("g") == Lit(2))
               .Map(Col("x") * Lit(2.0), "x2")
               .ReduceSum("x2");
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.num_rows(), 1u);
  EXPECT_NEAR(report->result.column(0).f64()[0], 2.0 * expected_sum_[2],
              1e-6);
}

TEST_F(DriverFixture, FilesPerWorkerControlsWorkerCount) {
  auto q = Query::FromParquet("s3://data/t/*.lpq").ReduceCount();
  RunOptions opts;
  opts.files_per_worker = 2;
  auto report = driver_->RunToCompletion(q, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->workers, 2);
  EXPECT_EQ(report->result.column(0).i64()[0], 4000);
}

TEST_F(DriverFixture, BadFanOutSettingsAreInvalidBeforeAnyRequest) {
  // files_per_worker divides the file count, so it must be positive, and
  // an explicit worker count may not be negative. Both are rejected
  // before the driver lists, uploads or invokes anything.
  auto q = Query::FromParquet("s3://data/t/*.lpq").ReduceCount();
  const cloud::CostSnapshot before = cloud_->ledger().Snapshot();
  for (int fpw : {0, -1}) {
    RunOptions opts;
    opts.files_per_worker = fpw;
    auto report = driver_->RunToCompletion(q, opts);
    ASSERT_FALSE(report.ok()) << "files_per_worker " << fpw;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << report.status().ToString();
    EXPECT_NE(report.status().message().find("files_per_worker"),
              std::string::npos);
  }
  RunOptions negative;
  negative.num_workers = -1;
  auto report = driver_->RunToCompletion(q, negative);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
  EXPECT_NE(report.status().message().find("num_workers"), std::string::npos);
  const cloud::CostSnapshot spent = cloud_->ledger().Snapshot() - before;
  EXPECT_EQ(spent.s3_list_requests, 0);
  EXPECT_EQ(spent.s3_get_requests, 0);
  EXPECT_EQ(spent.s3_put_requests, 0);
  EXPECT_EQ(spent.sqs_requests, 0);
  EXPECT_EQ(spent.ddb_reads + spent.ddb_writes, 0);
  EXPECT_EQ(spent.lambda_invocations, 0);
}

TEST_F(DriverFixture, NoMatchingFilesFails) {
  auto q = Query::FromParquet("s3://data/missing/*.lpq").ReduceCount();
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(DriverFixture, QueryWithExchangeProducesSameAggregate) {
  // Repartition by g before aggregating: same result, now computed after
  // a shuffle (each group entirely on one worker).
  ExchangeSpec spec;
  spec.levels = 2;
  spec.num_buckets = 4;
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .Repartition({"g"}, spec)
               .Aggregate({"g"}, {engine::Sum(Col("x"), "s")});
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->workers, 4);
  const TableChunk& r = report->result;
  ASSERT_EQ(r.num_rows(), 4u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    int64_t g = r.column(0).i64()[i];
    EXPECT_NEAR(r.column(1).f64()[i], expected_sum_[g], 1e-6);
  }
}

TEST_F(DriverFixture, CollectRowsWithoutAggregate) {
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .Filter(Col("x") < Lit(10.0));
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result.num_rows(), 10u);
}

TEST_F(DriverFixture, SecondRunIsWarm) {
  auto q = Query::FromParquet("s3://data/t/*.lpq").ReduceCount();
  auto cold = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(cold.ok());
  auto hot = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(hot.ok());
  EXPECT_LT(hot->latency_s, cold->latency_s);
  for (const auto& m : cold->worker_metrics) EXPECT_TRUE(m.cold_start);
  for (const auto& m : hot->worker_metrics) EXPECT_FALSE(m.cold_start);
}

TEST_F(DriverFixture, ExchangeToleratesFullyPrunedWorkers) {
  // x < 250 prunes every row group on workers 1-3 (their x ranges start
  // at 1000), so they enter the exchange schema-less; g == 2 then routes
  // every surviving row to one worker, so at least two of them receive
  // nothing either and must contribute an empty partial instead of
  // failing the post-exchange Map on an unknown column.
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .Filter(Col("x") < Lit(250.0))
               .Filter(Col("g") == Lit(2))
               .Repartition({"g"})
               .Map(Col("x") * Lit(2.0), "x2")
               .Aggregate({}, {engine::Sum(Col("x2"), "s")});
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.num_rows(), 1u);
  EXPECT_NEAR(report->result.column(0).f64()[0], 2.0 * expected_g2_small_,
              1e-6);
}

TEST_F(DriverFixture, InnerJoinThroughTwoSidedExchange) {
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .JoinWith(DimQuery(), {"g"}, {"dg"})
               .Aggregate({"g"}, {engine::Sum(Col("x"), "sx"),
                                  engine::Sum(Col("w"), "sw")});
  // This test exercises the partitioned path; left to its own devices the
  // cost model would broadcast the tiny dimension table (see
  // BroadcastJoinMatchesPartitioned).
  RunOptions opts;
  opts.join_strategy = JoinStrategyOverride::kForcePartitioned;
  auto report = driver_->RunToCompletion(q, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->workers, 4);
  const TableChunk& r = report->result;
  ASSERT_EQ(r.num_rows(), 4u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    int64_t g = r.column(0).i64()[i];
    // Every probe row matched exactly one dimension row.
    EXPECT_NEAR(r.column(1).f64()[i], expected_sum_[g], 1e-6);
    EXPECT_NEAR(r.column(2).f64()[i],
                static_cast<double>(expected_count_[g] * g) * 10.0, 1e-6);
  }
  // Both exchanges ran on every worker.
  const int64_t rounds =
      report->fleet_metrics.counter(obs::Metric::kExchangeRounds);
  const int64_t joined =
      report->fleet_metrics.counter(obs::Metric::kRowsJoined);
  EXPECT_EQ(rounds, 4 * 2 * 2);  // 4 workers x 2 exchanges x 2 levels.
  EXPECT_EQ(joined, 4000);
}

TEST_F(DriverFixture, BroadcastJoinMatchesPartitioned) {
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .JoinWith(DimQuery(), {"g"}, {"dg"})
               .Aggregate({"g"}, {engine::Sum(Col("x"), "sx"),
                                  engine::Sum(Col("w"), "sw")});
  // Left to the cost model, the single tiny dimension file broadcasts:
  // shipping it once to each of 4 workers is far cheaper than pushing
  // both relations through a two-sided hash exchange.
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->join_choices.size(), 1u);
  EXPECT_TRUE(report->join_choices[0].broadcast);
  EXPECT_LT(report->join_choices[0].broadcast_usd,
            report->join_choices[0].partitioned_usd);
  EXPECT_GT(report->join_choices[0].partitioned_usd, 0.0);
  const int64_t rounds =
      report->fleet_metrics.counter(obs::Metric::kExchangeRounds);
  const int64_t joined =
      report->fleet_metrics.counter(obs::Metric::kRowsJoined);
  EXPECT_EQ(rounds, 0);  // The broadcast path runs no exchange at all.
  EXPECT_EQ(joined, 4000);
  // Same answer as the partitioned plan of InnerJoinThroughTwoSidedExchange.
  const TableChunk& r = report->result;
  ASSERT_EQ(r.num_rows(), 4u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    int64_t g = r.column(0).i64()[i];
    EXPECT_NEAR(r.column(1).f64()[i], expected_sum_[g], 1e-6);
    EXPECT_NEAR(r.column(2).f64()[i],
                static_cast<double>(expected_count_[g] * g) * 10.0, 1e-6);
  }
}

TEST_F(DriverFixture, LeftSemiJoinFiltersProbeRows) {
  auto dim = Query::FromParquet("s3://data/dim/*.lpq")
                 .Filter(Col("dg") <= Lit(1))
                 .Select({Col("dg")}, {"dg"});
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .JoinWith(dim, {"g"}, {"dg"}, engine::JoinType::kLeftSemi)
               .ReduceSum("x");
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.num_rows(), 1u);
  EXPECT_NEAR(report->result.column(0).f64()[0],
              expected_sum_[0] + expected_sum_[1], 1e-6);
}

TEST_F(DriverFixture, JoinWithoutAggregateCollectsRows) {
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .Filter(Col("x") < Lit(10.0))
               .JoinWith(DimQuery(), {"g"}, {"dg"});
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.num_rows(), 10u);
  ASSERT_EQ(report->result.num_columns(), 3u);  // g, x, w.
  int w_idx = report->result.schema()->FieldIndex("w");
  ASSERT_GE(w_idx, 0);
  for (size_t i = 0; i < report->result.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(
        report->result.column(static_cast<size_t>(w_idx)).f64()[i],
        static_cast<double>(report->result.column(0).i64()[i]) * 10.0);
  }
}

TEST_F(DriverFixture, MissingBuildFilesFails) {
  auto dim = Query::FromParquet("s3://data/nothing/*.lpq")
                 .Select({Col("dg")}, {"dg"});
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .JoinWith(dim, {"g"}, {"dg"}, engine::JoinType::kLeftSemi)
               .ReduceCount();
  auto report = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
}

/// Uploads `files` files of a (g, k, x) table to s3://data/<prefix>:
/// g in 0..7, k in 0..999, x integer-valued so every sum is exact in any
/// order.
void UploadGroupedTable(cloud::Cloud* cloud, const std::string& prefix,
                        int files) {
  LAMBADA_CHECK_OK(cloud->s3().CreateBucket("data"));
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"g", DataType::kInt64},
                         {"k", DataType::kInt64},
                         {"x", DataType::kFloat64}});
  Rng rng(11);
  for (int f = 0; f < files; ++f) {
    std::vector<int64_t> g, k;
    std::vector<double> x;
    for (int i = 0; i < 300; ++i) {
      g.push_back(rng.UniformInt(0, 7));
      k.push_back(rng.UniformInt(0, 999));
      x.push_back(static_cast<double>(f * 300 + i));
    }
    TableChunk t(schema, {Column::Int64(std::move(g)),
                          Column::Int64(std::move(k)),
                          Column::Float64(std::move(x))});
    format::WriterOptions wo;
    wo.row_group_rows = 100;
    auto file = format::FileWriter::WriteTable(t, wo);
    LAMBADA_CHECK_OK(file);
    LAMBADA_CHECK_OK(cloud->s3().PutDirect(
        "data", prefix + "part-" + std::to_string(f) + ".lpq",
        Buffer::FromVector(*std::move(file))));
  }
}

TEST(FragmentExecutorTest, TwoRepartitionsMatchOne) {
  // A single-table fragment with two exchanges runs on the one fragment
  // executor like a join fragment does; its per-group result equals the
  // one-exchange query's.
  using Groups = std::map<int64_t, std::pair<double, int64_t>>;
  auto run = [](int exchanges) {
    cloud::Cloud cloud;
    Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    UploadGroupedTable(&cloud, "t/", 8);
    Query q = Query::FromParquet("s3://data/t/*.lpq");
    if (exchanges == 2) {
      q = q.Repartition({"k"}).Filter(Col("k") >= Lit(int64_t{0}));
    }
    q = q.Repartition({"g"}).Aggregate(
        {"g"}, {engine::Sum(Col("x"), "s"), engine::Count("n")});
    auto report = driver.RunToCompletion(q, RunOptions{});
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    LAMBADA_CHECK(report->fleet_metrics.counter(
                      obs::Metric::kExchangeRounds) ==
                  int64_t{8} * 2 * exchanges);  // 8 workers x 2 levels.
    Groups groups;
    const TableChunk& r = report->result;
    for (size_t i = 0; i < r.num_rows(); ++i) {
      groups[r.column(0).i64()[i]] = {r.column(1).f64()[i],
                                      r.column(2).i64()[i]};
    }
    return groups;
  };
  const Groups ref = run(1);
  ASSERT_EQ(ref.size(), 8u);
  EXPECT_EQ(run(2), ref);
}

TEST(FragmentExecutorTest, ExchangeGridShrinkIsExplained) {
  // 17 is prime and has no balanced two-level grid, so a partitioned join
  // over 17 files runs on 16 workers — and EXPLAIN says so.
  cloud::Cloud cloud;
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  UploadGroupedTable(&cloud, "t/", 17);
  auto dim_schema = std::make_shared<Schema>(
      std::vector<Field>{{"dg", DataType::kInt64}});
  TableChunk dim(dim_schema, {Column::Int64({0, 1, 2, 3, 4, 5, 6, 7})});
  auto dim_file = format::FileWriter::WriteTable(dim, format::WriterOptions{});
  ASSERT_TRUE(dim_file.ok());
  ASSERT_TRUE(cloud.s3()
                  .PutDirect("data", "dim/part-0.lpq",
                             Buffer::FromVector(*std::move(dim_file)))
                  .ok());
  auto q = Query::FromParquet("s3://data/t/*.lpq")
               .JoinWith(Query::FromParquet("s3://data/dim/*.lpq")
                             .Select({Col("dg")}, {"dg"}),
                         {"g"}, {"dg"}, engine::JoinType::kLeftSemi)
               .ReduceCount();
  RunOptions opts;
  opts.join_strategy = JoinStrategyOverride::kForcePartitioned;
  auto report = driver.RunToCompletion(q, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->workers, 16);
  EXPECT_EQ(report->result.column(0).i64()[0], 17 * 300);
  EXPECT_NE(report->explain_text.find("workers: 17 -> 16 (exchange grid)"),
            std::string::npos)
      << report->explain_text;
  EXPECT_NE(report->explain_analyze_text.find("workers: 17 -> 16"),
            std::string::npos);
  // A broadcast join runs no exchange, so the fleet keeps all 17.
  opts.join_strategy = JoinStrategyOverride::kForceBroadcast;
  auto broadcast = driver.RunToCompletion(q, opts);
  ASSERT_TRUE(broadcast.ok()) << broadcast.status().ToString();
  EXPECT_EQ(broadcast->workers, 17);
  EXPECT_EQ(broadcast->explain_text.find("workers:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Two-level invocation tree
// ---------------------------------------------------------------------------

TEST(InvocationTreeTest, AllWorkersStartAndInvocationIsSublinear) {
  // 256 workers: the driver should only issue ~sqrt(256)=16 Invoke calls;
  // the rest are started by first-generation workers.
  cloud::CloudConfig cfg;
  cfg.concurrency_limit = 1000;
  cloud::Cloud cloud(cfg);
  Driver driver(&cloud);
  ASSERT_TRUE(driver.Install().ok());
  ASSERT_TRUE(cloud.s3().CreateBucket("data").ok());
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::kInt64}});
  for (int f = 0; f < 256; ++f) {
    TableChunk t(schema, {Column::Int64({f})});
    auto file = format::FileWriter::WriteTable(t, format::WriterOptions{});
    ASSERT_TRUE(file.ok());
    char name[32];
    std::snprintf(name, sizeof(name), "p/%04d.lpq", f);
    ASSERT_TRUE(cloud.s3()
                    .PutDirect("data", name,
                               Buffer::FromVector(*std::move(file)))
                    .ok());
  }
  auto q = Query::FromParquet("s3://data/p/*.lpq").ReduceCount();
  auto report = driver.RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->workers, 256);
  EXPECT_EQ(report->result.column(0).i64()[0], 256);
  // All 256 workers ran exactly once.
  EXPECT_EQ(report->cost.lambda_invocations, 256);
  std::set<int64_t> ids;
  for (const auto& m : report->worker_metrics) ids.insert(m.worker_id);
  EXPECT_EQ(ids.size(), 256u);
  // Invocation issue time is far below what 256 sequential driver calls
  // would take (256/294 ~ 0.87 s at the client rate; the tree needs only
  // 16 calls + in-region fan-out).
  EXPECT_LT(report->invocation_issue_s, 0.6);
}

TEST(InvocationTreeTest, DirectInvocationAlsoWorks) {
  cloud::Cloud cloud;
  DriverOptions dopts;
  dopts.invocation_tree_depth = 1;
  Driver driver(&cloud, dopts);
  ASSERT_TRUE(driver.Install().ok());
  ASSERT_TRUE(cloud.s3().CreateBucket("data").ok());
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::kInt64}});
  for (int f = 0; f < 16; ++f) {
    TableChunk t(schema, {Column::Int64({f})});
    auto file = format::FileWriter::WriteTable(t, format::WriterOptions{});
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(cloud.s3()
                    .PutDirect("data", "p/" + std::to_string(f) + ".lpq",
                               Buffer::FromVector(*std::move(file)))
                    .ok());
  }
  auto q = Query::FromParquet("s3://data/p/*.lpq").ReduceCount();
  auto report = driver.RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->result.column(0).i64()[0], 16);
}

}  // namespace
}  // namespace lambada::core
