#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "cloud/cloud.h"
#include "common/rng.h"
#include "engine/aggregate.h"
#include "engine/chunk_serde.h"
#include "engine/expr.h"
#include "engine/join.h"
#include "engine/partition.h"
#include "engine/scan.h"
#include "engine/table.h"
#include "format/metadata.h"
#include "format/writer.h"
#include "obs/trace.h"

namespace lambada::engine {
namespace {

SchemaPtr S3Schema() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64},
      {"x", DataType::kFloat64},
      {"y", DataType::kInt64}});
}

TableChunk SampleChunk() {
  return TableChunk(S3Schema(), {Column::Int64({1, 2, 1, 3}),
                                 Column::Float64({0.5, 1.5, 2.5, 3.5}),
                                 Column::Int64({10, 20, 30, 40})});
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ExprTest, ColumnAndLiteralEvaluation) {
  TableChunk t = SampleChunk();
  auto col = Col("y")->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->i64(), (std::vector<int64_t>{10, 20, 30, 40}));
  auto lit = Lit(7)->Evaluate(t);
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit->i64(), (std::vector<int64_t>{7, 7, 7, 7}));
}

TEST(ExprTest, ArithmeticTypePromotion) {
  TableChunk t = SampleChunk();
  // int64 * int64 stays int64.
  auto ii = (Col("k") * Col("y"))->Evaluate(t);
  ASSERT_TRUE(ii.ok());
  EXPECT_EQ(ii->type(), DataType::kInt64);
  EXPECT_EQ(ii->i64(), (std::vector<int64_t>{10, 40, 30, 120}));
  // int64 * float64 promotes to float64.
  auto fi = (Col("x") * Col("y"))->Evaluate(t);
  ASSERT_TRUE(fi.ok());
  EXPECT_EQ(fi->type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(fi->f64()[1], 30.0);
}

TEST(ExprTest, ComparisonsYieldBoolInt) {
  TableChunk t = SampleChunk();
  auto ge = (Col("x") >= Lit(1.5))->Evaluate(t);
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->i64(), (std::vector<int64_t>{0, 1, 1, 1}));
  auto both = ((Col("x") >= Lit(1.5)) && (Col("k") == Lit(1)))->Evaluate(t);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->i64(), (std::vector<int64_t>{0, 0, 1, 0}));
}

TEST(ExprTest, DivisionByZeroYieldsZero) {
  TableChunk t = SampleChunk();
  auto div = (Col("y") / Lit(0))->Evaluate(t);
  ASSERT_TRUE(div.ok());
  EXPECT_EQ(div->i64(), (std::vector<int64_t>{0, 0, 0, 0}));
}

TEST(ExprTest, UnknownColumnFails) {
  TableChunk t = SampleChunk();
  EXPECT_FALSE(Col("nope")->Evaluate(t).ok());
  EXPECT_FALSE(Col("nope")->Validate(*t.schema()).ok());
  EXPECT_TRUE(Col("x")->Validate(*t.schema()).ok());
}

TEST(ExprTest, CollectColumns) {
  auto e = (Col("a") + Col("b")) * Lit(2) >= Col("c");
  std::set<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"a", "b", "c"}));
}

TEST(ExprTest, SerializationRoundTrip) {
  auto e = ((Col("x") >= Lit(0.05)) && (Col("y") < Lit(24))) ||
           (Col("k") == Lit(3));
  BinaryWriter w;
  e->Serialize(&w);
  BinaryReader r(w.bytes());
  auto back = Expr::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->ToString(), e->ToString());
  // Behavioural equivalence.
  TableChunk t = SampleChunk();
  EXPECT_EQ((*back)->Evaluate(t)->i64(), e->Evaluate(t)->i64());
}

TEST(ExprTest, ExtractBoundsFromConjunction) {
  auto e = (Col("d") >= Lit(19940101)) && (Col("d") < Lit(19950101)) &&
           (Col("q") < Lit(24.0));
  auto bounds = ExtractColumnBounds(e);
  ASSERT_TRUE(bounds.count("d"));
  EXPECT_DOUBLE_EQ(bounds["d"].lo, 19940101);
  EXPECT_DOUBLE_EQ(bounds["d"].hi, 19950101);
  EXPECT_DOUBLE_EQ(bounds["q"].hi, 24.0);
  EXPECT_TRUE(bounds["d"].Intersects(19940500, 19940600));
  EXPECT_FALSE(bounds["d"].Intersects(19960101, 19970101));
}

TEST(ExprTest, ExtractBoundsIgnoresDisjunction) {
  // OR cannot tighten bounds for either column.
  auto e = (Col("a") < Lit(5)) || (Col("b") > Lit(7));
  auto bounds = ExtractColumnBounds(e);
  EXPECT_TRUE(bounds.empty());
}

TEST(ExprTest, ExtractBoundsFlippedComparison) {
  auto e = Lit(10) >= Col("a");  // means a <= 10.
  auto bounds = ExtractColumnBounds(e);
  ASSERT_TRUE(bounds.count("a"));
  EXPECT_DOUBLE_EQ(bounds["a"].hi, 10);
}

// ---------------------------------------------------------------------------
// HashAggregator
// ---------------------------------------------------------------------------

TEST(AggregateTest, GroupedSumCountAvg) {
  HashAggregator agg({"k"}, {Sum(Col("x"), "sx"), Count("n"),
                             Avg(Col("y"), "ay")});
  ASSERT_TRUE(agg.ConsumeInput(SampleChunk()).ok());
  TableChunk out = agg.Finalize();
  // Groups sorted by key: k=1 (rows 0,2), k=2 (row 1), k=3 (row 3).
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.column(0).i64(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(out.column(1).f64()[0], 3.0);   // 0.5 + 2.5
  EXPECT_EQ(out.column(2).i64()[0], 2);            // count
  EXPECT_DOUBLE_EQ(out.column(3).f64()[0], 20.0);  // (10+30)/2
}

TEST(AggregateTest, MinMax) {
  HashAggregator agg({}, {Min(Col("x"), "mn"), Max(Col("x"), "mx")});
  ASSERT_TRUE(agg.ConsumeInput(SampleChunk()).ok());
  TableChunk out = agg.Finalize();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.column(0).f64()[0], 0.5);
  EXPECT_DOUBLE_EQ(out.column(1).f64()[0], 3.5);
}

TEST(AggregateTest, PartialMergeEqualsDirect) {
  // Split input across two "workers", merge partials, compare to direct.
  auto specs = [] {
    return std::vector<AggSpec>{Sum(Col("x") * Col("y"), "sxy"), Count("n"),
                                Avg(Col("x"), "ax"), Min(Col("y"), "mn")};
  };
  TableChunk full = SampleChunk();
  HashAggregator direct({"k"}, specs());
  ASSERT_TRUE(direct.ConsumeInput(full).ok());

  HashAggregator w1({"k"}, specs()), w2({"k"}, specs());
  ASSERT_TRUE(w1.ConsumeInput(full.Filter({true, true, false, false})).ok());
  ASSERT_TRUE(w2.ConsumeInput(full.Filter({false, false, true, true})).ok());
  HashAggregator merger({"k"}, specs());
  ASSERT_TRUE(merger.MergePartial(w1.PartialState()).ok());
  ASSERT_TRUE(merger.MergePartial(w2.PartialState()).ok());

  TableChunk a = direct.Finalize();
  TableChunk b = merger.Finalize();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column(c).type() == DataType::kInt64) {
      EXPECT_EQ(a.column(c).i64(), b.column(c).i64());
    } else {
      for (size_t r = 0; r < a.num_rows(); ++r) {
        EXPECT_DOUBLE_EQ(a.column(c).f64()[r], b.column(c).f64()[r]);
      }
    }
  }
}

TEST(AggregateTest, EmptyInputEmptyOutput) {
  HashAggregator agg({"k"}, {Sum(Col("x"), "s")});
  TableChunk out = agg.Finalize();
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(agg.num_groups(), 0u);
}

TEST(AggregateTest, GlobalAggregateOverNoRowsIsOneRow) {
  // No group-by: one row of the empty state. COUNT is 0 and, with no NULL
  // in the engine, SUM, AVG, MIN and MAX are 0 as well.
  HashAggregator agg({}, {Count("n"), Sum(Col("x"), "s"), Avg(Col("x"), "a"),
                          Min(Col("x"), "mn"), Max(Col("x"), "mx")});
  TableChunk out = agg.Finalize();
  ASSERT_EQ(out.num_rows(), 1u);
  ASSERT_EQ(out.num_columns(), 5u);
  EXPECT_EQ(out.column(0).i64()[0], 0);
  for (size_t c = 1; c < out.num_columns(); ++c) {
    EXPECT_EQ(out.column(c).f64()[0], 0.0) << "column " << c;
  }
  EXPECT_EQ(agg.num_groups(), 0u);
}

TEST(AggregateTest, GlobalAggregateWithoutGroups) {
  HashAggregator agg({}, {Sum(Col("y"), "s")});
  ASSERT_TRUE(agg.ConsumeInput(SampleChunk()).ok());
  ASSERT_TRUE(agg.ConsumeInput(SampleChunk()).ok());
  TableChunk out = agg.Finalize();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.column(0).f64()[0], 200.0);
}

TEST(AggregateTest, PartialSchemaExpandsAvg) {
  HashAggregator agg({"k"}, {Avg(Col("x"), "a")});
  auto partial = agg.PartialSchema();
  ASSERT_EQ(partial->num_fields(), 3u);
  EXPECT_EQ(partial->field(1).name, "a$sum");
  EXPECT_EQ(partial->field(2).name, "a$count");
  auto final_schema = agg.FinalSchema();
  ASSERT_EQ(final_schema->num_fields(), 2u);
  EXPECT_EQ(final_schema->field(1).name, "a");
}

TEST(AggregateTest, MergeRejectsWrongSchema) {
  HashAggregator agg({"k"}, {Sum(Col("x"), "s")});
  EXPECT_FALSE(agg.MergePartial(SampleChunk()).ok());
}

TEST(AggregateTest, NonInt64GroupKeyRejected) {
  HashAggregator agg({"x"}, {Count("n")});
  EXPECT_FALSE(agg.ConsumeInput(SampleChunk()).ok());
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(PartitionTest, EveryRowLandsInExactlyOnePartition) {
  Rng rng(1);
  std::vector<int64_t> keys;
  std::vector<double> vals;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(rng.UniformInt(0, 1000));
    vals.push_back(rng.NextDouble());
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  TableChunk t(schema, {Column::Int64(keys), Column::Float64(vals)});
  auto parts = HashPartition(t, {0}, 16);
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  double sum = 0;
  for (const auto& p : *parts) {
    total += p.num_rows();
    for (double v : p.column(1).f64()) sum += v;
  }
  EXPECT_EQ(total, t.num_rows());
  double expect_sum = 0;
  for (double v : vals) expect_sum += v;
  EXPECT_NEAR(sum, expect_sum, 1e-6);
}

TEST(PartitionTest, SameKeySamePartition) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", DataType::kInt64}});
  TableChunk t(schema, {Column::Int64({42, 7, 42, 7, 42})});
  auto ids = ComputePartitionIds(t, {0}, 8);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ((*ids)[0], (*ids)[2]);
  EXPECT_EQ((*ids)[0], (*ids)[4]);
  EXPECT_EQ((*ids)[1], (*ids)[3]);
}

TEST(PartitionTest, DeterministicAcrossCalls) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", DataType::kInt64}});
  std::vector<int64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(i * 37);
  TableChunk t(schema, {Column::Int64(keys)});
  auto a = ComputePartitionIds(t, {0}, 13);
  auto b = ComputePartitionIds(t, {0}, 13);
  EXPECT_EQ(*a, *b);
}

TEST(PartitionTest, PartitionByAppendsRowsInInputOrder) {
  // PartitionBy equals appending every row to its partition in input
  // order.
  Rng rng(5);
  const size_t rows = 20000;
  const int parts = 13;
  std::vector<uint32_t> ids(rows);
  std::vector<int64_t> keys(rows);
  std::vector<double> vals(rows);
  std::vector<std::vector<int64_t>> want_keys(parts);
  std::vector<std::vector<double>> want_vals(parts);
  for (size_t i = 0; i < rows; ++i) {
    ids[i] = static_cast<uint32_t>(rng.UniformInt(0, parts - 1));
    keys[i] = rng.UniformInt(-1000000, 1000000);
    vals[i] = rng.NextDouble();
    want_keys[ids[i]].push_back(keys[i]);
    want_vals[ids[i]].push_back(vals[i]);
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  TableChunk t(schema, {Column::Int64(keys), Column::Float64(vals)});
  std::vector<TableChunk> out = PartitionBy(t, ids, parts);
  ASSERT_EQ(out.size(), static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    EXPECT_EQ(*out[p].schema(), *schema) << "partition " << p;
    EXPECT_EQ(out[p].column(0).i64(), want_keys[p]) << "partition " << p;
    EXPECT_EQ(out[p].column(1).f64(), want_vals[p]) << "partition " << p;
  }
}

TEST(PartitionTest, ReasonablyBalanced) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", DataType::kInt64}});
  std::vector<int64_t> keys;
  for (int i = 0; i < 64000; ++i) keys.push_back(i);
  TableChunk t(schema, {Column::Int64(keys)});
  auto parts = HashPartition(t, {0}, 64);
  ASSERT_TRUE(parts.ok());
  for (const auto& p : *parts) {
    EXPECT_GT(p.num_rows(), 700u);   // Expected 1000.
    EXPECT_LT(p.num_rows(), 1300u);
  }
}

TEST(PartitionTest, InvalidArgumentsRejected) {
  TableChunk t = SampleChunk();
  EXPECT_FALSE(HashPartition(t, {0}, 0).ok());
  EXPECT_FALSE(HashPartition(t, {99}, 4).ok());
}

// ---------------------------------------------------------------------------
// Chunk serde
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

TableChunk ProbeChunk() {
  // Keys 1,2,2,3,5 with a payload identifying each row.
  return TableChunk(
      std::make_shared<Schema>(std::vector<Field>{
          {"pk", DataType::kInt64}, {"pv", DataType::kFloat64}}),
      {Column::Int64({1, 2, 2, 3, 5}),
       Column::Float64({0.1, 0.2, 0.3, 0.4, 0.5})});
}

TableChunk BuildChunk() {
  // Key 2 appears twice (rows 1 and 3 in build order); probe key 5 has no
  // build partner.
  return TableChunk(
      std::make_shared<Schema>(std::vector<Field>{
          {"bk", DataType::kInt64}, {"bv", DataType::kInt64}}),
      {Column::Int64({1, 2, 3, 2}), Column::Int64({100, 200, 300, 201})});
}

TEST(HashJoinTest, InnerEmitsProbeOrderThenBuildOrder) {
  auto joined = HashJoin(ProbeChunk(), {0}, BuildChunk(), {0},
                         JoinType::kInner);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Output columns: pk, pv, bv (build key dropped).
  ASSERT_EQ(joined->num_columns(), 3u);
  EXPECT_EQ(joined->schema()->field(2).name, "bv");
  // Probe rows in order; probe key 2 matches build rows 1 then 3.
  EXPECT_EQ(joined->column(0).i64(),
            (std::vector<int64_t>{1, 2, 2, 2, 2, 3}));
  EXPECT_EQ(joined->column(2).i64(),
            (std::vector<int64_t>{100, 200, 201, 200, 201, 300}));
}

TEST(HashJoinTest, LeftSemiKeepsProbeColumnsOnce) {
  auto joined = HashJoin(ProbeChunk(), {0}, BuildChunk(), {0},
                         JoinType::kLeftSemi);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->num_columns(), 2u);  // Probe columns only.
  // Probe keys 1, 2, 2, 3 match (each probe row at most once); 5 does not.
  EXPECT_EQ(joined->column(0).i64(), (std::vector<int64_t>{1, 2, 2, 3}));
  EXPECT_EQ(joined->column(1).f64(),
            (std::vector<double>{0.1, 0.2, 0.3, 0.4}));
}

TEST(HashJoinTest, MultiColumnKeysAndNoMatches) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"a", DataType::kInt64}, {"b", DataType::kInt64}});
  TableChunk probe(schema, {Column::Int64({1, 1, 2}),
                            Column::Int64({10, 11, 10})});
  TableChunk build(
      std::make_shared<Schema>(std::vector<Field>{
          {"c", DataType::kInt64}, {"d", DataType::kInt64},
          {"tag", DataType::kInt64}}),
      {Column::Int64({1, 2}), Column::Int64({10, 99}),
       Column::Int64({7, 8})});
  auto joined = HashJoin(probe, {0, 1}, build, {0, 1}, JoinType::kInner);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Only (1,10) matches; (1,11) and (2,10) share one key half each.
  ASSERT_EQ(joined->num_rows(), 1u);
  EXPECT_EQ(joined->column(0).i64()[0], 1);
  EXPECT_EQ(joined->column(2).i64()[0], 7);
}

TEST(HashJoinTest, EmptySidesProduceEmptyOutput) {
  TableChunk empty_probe = TableChunk::Empty(ProbeChunk().schema());
  auto a = HashJoin(empty_probe, {0}, BuildChunk(), {0}, JoinType::kInner);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->num_rows(), 0u);
  EXPECT_EQ(a->num_columns(), 3u);  // Schema still complete.
  TableChunk empty_build = TableChunk::Empty(BuildChunk().schema());
  auto b = HashJoin(ProbeChunk(), {0}, empty_build, {0}, JoinType::kInner);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_rows(), 0u);
}

TEST(HashJoinTest, RejectsBadKeysAndDuplicateNames) {
  // Float key.
  EXPECT_FALSE(HashJoin(ProbeChunk(), {1}, BuildChunk(), {0},
                        JoinType::kInner)
                   .ok());
  // Mismatched key list lengths / empty keys.
  EXPECT_FALSE(HashJoin(ProbeChunk(), {0}, BuildChunk(), {0, 1},
                        JoinType::kInner)
                   .ok());
  EXPECT_FALSE(HashJoin(ProbeChunk(), {}, BuildChunk(), {},
                        JoinType::kInner)
                   .ok());
  // Key index out of range.
  EXPECT_FALSE(HashJoin(ProbeChunk(), {5}, BuildChunk(), {0},
                        JoinType::kInner)
                   .ok());
  // Duplicate output name: build payload column named like a probe column.
  TableChunk clash(
      std::make_shared<Schema>(std::vector<Field>{
          {"bk", DataType::kInt64}, {"pv", DataType::kFloat64}}),
      {Column::Int64({1}), Column::Float64({9.0})});
  EXPECT_FALSE(
      HashJoin(ProbeChunk(), {0}, clash, {0}, JoinType::kInner).ok());
  // The semi join drops build columns, so the same clash is fine there.
  EXPECT_TRUE(
      HashJoin(ProbeChunk(), {0}, clash, {0}, JoinType::kLeftSemi).ok());
}

TEST(HashJoinTest, MatchesNestedLoopJoin) {
  // Large skewed input (many duplicate keys on both sides) against a
  // nested-loop join written here: probe rows in order, each probe row's
  // matches in build-row order; the semi join keeps each matching probe
  // row once.
  Rng rng(11);
  const size_t n_probe = 50000, n_build = 8000;
  std::vector<int64_t> pk(n_probe), pv(n_probe);
  for (size_t i = 0; i < n_probe; ++i) {
    pk[i] = rng.UniformInt(0, 4000);
    pv[i] = static_cast<int64_t>(i);
  }
  std::vector<int64_t> bk(n_build);
  std::vector<double> bv(n_build);
  for (size_t i = 0; i < n_build; ++i) {
    bk[i] = rng.UniformInt(0, 4000);
    bv[i] = rng.NextDouble();
  }
  std::vector<int64_t> inner_k, inner_pv, semi_k, semi_pv;
  std::vector<double> inner_bv;
  for (size_t i = 0; i < n_probe; ++i) {
    bool matched = false;
    for (size_t j = 0; j < n_build; ++j) {
      if (bk[j] != pk[i]) continue;
      inner_k.push_back(pk[i]);
      inner_pv.push_back(pv[i]);
      inner_bv.push_back(bv[j]);
      matched = true;
    }
    if (matched) {
      semi_k.push_back(pk[i]);
      semi_pv.push_back(pv[i]);
    }
  }
  TableChunk probe(std::make_shared<Schema>(std::vector<Field>{
                       {"k", DataType::kInt64}, {"pv", DataType::kInt64}}),
                   {Column::Int64(pk), Column::Int64(pv)});
  TableChunk build(std::make_shared<Schema>(std::vector<Field>{
                       {"k2", DataType::kInt64},
                       {"bv", DataType::kFloat64}}),
                   {Column::Int64(bk), Column::Float64(bv)});

  auto inner = HashJoin(probe, {0}, build, {0}, JoinType::kInner);
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  ASSERT_EQ(inner->num_columns(), 3u);  // k, pv, bv (build key dropped).
  EXPECT_GT(inner_k.size(), n_probe);   // Skew: many rows match twice.
  EXPECT_EQ(inner->column(0).i64(), inner_k);
  EXPECT_EQ(inner->column(1).i64(), inner_pv);
  EXPECT_EQ(inner->column(2).f64(), inner_bv);

  auto semi = HashJoin(probe, {0}, build, {0}, JoinType::kLeftSemi);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  ASSERT_EQ(semi->num_columns(), 2u);
  EXPECT_LT(semi_k.size(), n_probe);
  EXPECT_EQ(semi->column(0).i64(), semi_k);
  EXPECT_EQ(semi->column(1).i64(), semi_pv);
}

TEST(ChunkSerdeTest, RoundTrip) {
  TableChunk t = SampleChunk();
  auto bytes = SerializeChunk(t);
  auto back = DeserializeChunk(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back->schema(), *t.schema());
  EXPECT_EQ(back->column(0).i64(), t.column(0).i64());
  EXPECT_EQ(back->column(1).f64(), t.column(1).f64());
}

TEST(ChunkSerdeTest, CombinedIsTheConcatenationOfSerializedChunks) {
  // Nine chunks of different sizes and schemas, a zero-row and a
  // schema-less one among them (an exchange sends those as empty slices).
  Rng rng(9);
  std::vector<TableChunk> chunks;
  for (size_t i = 0; i < 9; ++i) {
    if (i == 4) {
      chunks.push_back(TableChunk());
      continue;
    }
    const size_t rows = i == 2 ? 0 : 100 * i + 7;
    std::vector<int64_t> k(rows);
    std::vector<double> x(rows);
    for (size_t r = 0; r < rows; ++r) {
      k[r] = rng.UniformInt(0, 1 << 20);
      x[r] = rng.NextDouble();
    }
    if (i % 2 == 0) {
      chunks.push_back(TableChunk(S3Schema(),
                                  {Column::Int64(k), Column::Float64(x),
                                   Column::Int64(k)}));
    } else {
      chunks.push_back(TableChunk(
          std::make_shared<Schema>(
              std::vector<Field>{{"only", DataType::kFloat64}}),
          {Column::Float64(std::move(x))}));
    }
  }
  CombinedChunks combined = SerializeChunksCombined(chunks);
  ASSERT_EQ(combined.offsets.size(), chunks.size() + 1);
  std::vector<uint8_t> concatenated;
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(combined.offsets[i], concatenated.size()) << "chunk " << i;
    std::vector<uint8_t> one = SerializeChunk(chunks[i]);
    concatenated.insert(concatenated.end(), one.begin(), one.end());
  }
  EXPECT_EQ(combined.offsets.back(), concatenated.size());
  EXPECT_EQ(combined.bytes, concatenated);
}

TEST(ChunkSerdeTest, EmptyChunk) {
  TableChunk t = TableChunk::Empty(S3Schema());
  auto back = DeserializeChunk(SerializeChunk(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(*back->schema(), *t.schema());
}

TEST(ChunkSerdeTest, CorruptionDetected) {
  auto bytes = SerializeChunk(SampleChunk());
  EXPECT_FALSE(DeserializeChunk(bytes.data(), bytes.size() / 2).ok());
  EXPECT_FALSE(DeserializeChunk(bytes.data(), 0).ok());
}

TEST(ChunkSerdeTest, CombinedOffsetsDelimitChunks) {
  std::vector<TableChunk> chunks = {SampleChunk(),
                                    TableChunk::Empty(S3Schema()),
                                    SampleChunk()};
  auto combined = SerializeChunksCombined(chunks);
  ASSERT_EQ(combined.offsets.size(), 4u);
  EXPECT_EQ(combined.offsets.back(), combined.bytes.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto back = DeserializeChunk(
        combined.bytes.data() + combined.offsets[i],
        combined.offsets[i + 1] - combined.offsets[i]);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->num_rows(), chunks[i].num_rows());
  }
}

// ---------------------------------------------------------------------------
// S3 scan operator (integration with simulated cloud)
// ---------------------------------------------------------------------------

using obs::Metric;

class ScanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cloud_.s3().CreateBucket("data").ok());
    // Three files, ids sorted globally across files => min/max pruning on
    // "id" can skip whole files.
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"id", DataType::kInt64}, {"v", DataType::kFloat64}});
    int64_t next_id = 0;
    for (int f = 0; f < 3; ++f) {
      std::vector<int64_t> ids;
      std::vector<double> vs;
      for (int i = 0; i < 3000; ++i) {
        ids.push_back(next_id++);
        vs.push_back(static_cast<double>(i % 100));
      }
      TableChunk t(schema, {Column::Int64(std::move(ids)),
                            Column::Float64(std::move(vs))});
      format::WriterOptions wo;
      wo.row_group_rows = 1000;
      auto file = format::FileWriter::WriteTable(t, wo);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(cloud_.s3()
                      .PutDirect("data", "part-" + std::to_string(f) + ".lpq",
                                 Buffer::FromVector(*std::move(file)))
                      .ok());
    }
  }

  /// What one scan inside a worker saw.
  struct ScanRun {
    Status status = Status::Internal("scan did not return");
    obs::MetricsRegistry stats;
    int64_t rows = 0;
    /// Worker memory still reserved when the scan returned.
    int64_t memory_left = -1;
    /// The ledger's growth over the run: the scan's bill.
    cloud::CostSnapshot bill;
  };

  /// Scans `files` inside a fresh worker of `memory_mib` and runs the
  /// simulator until it drains.
  ScanRun Scan(std::vector<FileRef> files, ScanOptions options,
               int memory_mib = 2048) {
    ScanRun run;
    cloud::FunctionConfig fn;
    fn.name = "scanner-" + std::to_string(functions_++);
    fn.memory_mib = memory_mib;
    fn.handler = [&](cloud::WorkerEnv& env,
                     std::string) -> sim::Async<Status> {
      auto r = co_await S3ParquetScan(env, files, options,
                                      [&](const TableChunk& chunk) {
                                        run.rows += chunk.num_rows();
                                        return Status::OK();
                                      });
      run.status = r.status();
      if (r.ok()) run.stats = *r;
      run.memory_left = env.memory_used();
      co_return Status::OK();
    };
    LAMBADA_CHECK_OK(cloud_.faas().CreateFunction(fn));
    const cloud::CostSnapshot before = cloud_.ledger().Snapshot();
    sim::Spawn([](cloud::Cloud* c, std::string name) -> sim::Async<void> {
      co_await c->faas().Invoke(c->driver_invoker_profile(),
                                &c->driver_rng(), name, "");
    }(&cloud_, fn.name));
    cloud_.sim().Run();
    run.bill = cloud_.ledger().Snapshot() - before;
    return run;
  }

  /// Runs a scan of the three files and returns (metrics, total rows seen).
  std::pair<obs::MetricsRegistry, int64_t> RunScan(ScanOptions options) {
    std::vector<FileRef> files;
    for (int f = 0; f < 3; ++f) {
      files.push_back(FileRef{"data", "part-" + std::to_string(f) + ".lpq"});
    }
    ScanRun run = Scan(std::move(files), std::move(options));
    LAMBADA_CHECK_OK(run.status);
    return {run.stats, run.rows};
  }

  cloud::Cloud cloud_;
  int functions_ = 0;
};

TEST_F(ScanFixture, FullScanSeesAllRows) {
  auto [stats, rows] = RunScan(ScanOptions{});
  EXPECT_EQ(rows, 9000);
  EXPECT_EQ(stats.counter(Metric::kScanFiles), 3);
  EXPECT_EQ(stats.counter(Metric::kRowGroupsTotal), 9);
  EXPECT_EQ(stats.counter(Metric::kRowGroupsPruned), 0);
}

TEST_F(ScanFixture, PredicatePrunesRowGroups) {
  ScanOptions opts;
  // ids 2000..2999 live in row group 2 of file 0 only. Bounds are
  // inclusive (min/max pruning treats < as <= conservatively), so use <=
  // to make the adjacent group [3000..3999] prunable.
  opts.filter = (Col("id") >= Lit(2000)) && (Col("id") <= Lit(2999));
  opts.projection = {"id", "v"};
  auto [stats, rows] = RunScan(opts);
  EXPECT_EQ(rows, 1000);
  EXPECT_EQ(stats.counter(Metric::kRowGroupsPruned), 8);
  EXPECT_EQ(stats.counter(Metric::kRowsScanned), 1000);
}

TEST_F(ScanFixture, ResidualFilterAppliedWithinRowGroup) {
  ScanOptions opts;
  opts.filter = Col("v") < Lit(10.0);  // 10% of rows, no pruning possible.
  auto [stats, rows] = RunScan(opts);
  EXPECT_EQ(stats.counter(Metric::kRowGroupsPruned), 0);
  EXPECT_EQ(rows, 900);
}

TEST_F(ScanFixture, ProjectionNarrowsChunks) {
  ScanOptions opts;
  opts.projection = {"v"};
  int64_t cols_seen = -1;
  cloud::FunctionConfig fn;
  fn.name = "proj";
  fn.memory_mib = 2048;
  fn.handler = [&](cloud::WorkerEnv& env, std::string) -> sim::Async<Status> {
    std::vector<FileRef> files = {FileRef{"data", "part-0.lpq"}};
    auto r = co_await S3ParquetScan(
        env, files, opts,
        [&](const TableChunk& chunk) {
          cols_seen = static_cast<int64_t>(chunk.num_columns());
          return Status::OK();
        });
    co_return r.ok() ? Status::OK() : r.status();
  };
  ASSERT_TRUE(cloud_.faas().CreateFunction(fn).ok());
  sim::Spawn([](cloud::Cloud* c) -> sim::Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "proj", "");
  }(&cloud_));
  cloud_.sim().Run();
  EXPECT_EQ(cols_seen, 1);
}

TEST_F(ScanFixture, ScaledObjectsDescaleChunkAndCoalescingBudgets) {
  // A virtually-scaled file models scale x more bytes per real byte, so
  // the scan must descale both the request ("chunk") size and the
  // coalescing budget: the scaled scan then splits its reads into many
  // more GETs (the modeled request pattern) while producing identical
  // rows.
  auto scan = [&](const std::string& bucket) {
    ScanOptions opts;
    opts.filter = Col("id") >= Lit(0);
    opts.source.chunk_bytes = 4 * 1024;  // Modeled bytes.
    ScanRun run = Scan({FileRef{bucket, "part-0.lpq"}}, opts);
    LAMBADA_CHECK_OK(run.status);
    return run;
  };
  // Re-upload file 0 into a second bucket with a x100 virtual scale.
  auto blob = cloud_.s3().GetDirect("data", "part-0.lpq");
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(cloud_.s3().CreateBucket("scaled").ok());
  ASSERT_TRUE(cloud_.s3()
                  .PutDirect("scaled", "part-0.lpq", *blob, 100.0)
                  .ok());
  ScanRun plain = scan("data");
  ScanRun scaled = scan("scaled");
  EXPECT_EQ(scaled.rows, plain.rows);
  // The descaled chunk (4 KiB / 100 = ~41 B real) splits each row-group
  // extent (a few hundred real bytes — the codec crushes these columns)
  // into several GETs; the unscaled scan reads each extent whole.
  EXPECT_GT(scaled.stats.counter(Metric::kScanGetRequests),
            2 * plain.stats.counter(Metric::kScanGetRequests));
  // The bytes moved are what the store billed: ranged reads at the
  // object's scale, the footer tail at its real size.
  EXPECT_EQ(scaled.stats.counter(Metric::kScanBytesMoved),
            scaled.bill.s3_bytes_read);
  EXPECT_EQ(plain.stats.counter(Metric::kScanBytesMoved),
            plain.bill.s3_bytes_read);
}

/// Puts an 8-row-group file of values the codec cannot crush at
/// data/<key>, virtually scaled to ~500 MB like the paper's files, so that
/// each group's GETs and its decompression both take a while on a
/// one-vCPU (1,792 MiB) worker: the shape of a cold Q1 worker. Returns
/// the file's bytes.
std::vector<uint8_t> PutEightRowGroupFile(cloud::Cloud* cloud,
                                          const std::string& key) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"a", DataType::kInt64}, {"b", DataType::kFloat64}});
  Rng rng(7);
  std::vector<int64_t> as;
  std::vector<double> bs;
  for (int i = 0; i < 8 * 2000; ++i) {
    as.push_back(static_cast<int64_t>(rng.Next()));
    bs.push_back(rng.NextDouble());
  }
  format::WriterOptions wo;
  wo.row_group_rows = 2000;
  auto file = format::FileWriter::WriteTable(
      TableChunk(schema, {Column::Int64(std::move(as)),
                          Column::Float64(std::move(bs))}),
      wo);
  LAMBADA_CHECK_OK(file.status());
  LAMBADA_CHECK_OK(cloud->s3().PutDirect(
      "data", key, Buffer::FromVector(std::vector<uint8_t>(*file)), 2000.0));
  return *std::move(file);
}

/// The most intervals open at one instant. One that closes at t and one
/// that opens at t do not overlap: a slot handed on at t is taken at t.
int MaxOverlap(const std::vector<std::pair<double, double>>& intervals) {
  std::vector<std::pair<double, int>> edges;
  for (const auto& [begin, end] : intervals) {
    edges.emplace_back(begin, 1);
    edges.emplace_back(end, -1);
  }
  std::sort(edges.begin(), edges.end());  // At a tie, -1 sorts first.
  int open = 0, most = 0;
  for (const auto& [at, delta] : edges) {
    open += delta;
    most = std::max(most, open);
  }
  return most;
}

TEST_F(ScanFixture, NextRowGroupsDownloadWhileEarlierOnesDecode) {
  PutEightRowGroupFile(&cloud_, "eight.lpq");
  obs::Tracer tracer(&cloud_.sim());
  cloud_.faas().set_tracer(&tracer);
  ScanRun run = Scan({FileRef{"data", "eight.lpq"}}, ScanOptions{}, 1792);
  cloud_.faas().set_tracer(nullptr);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.rows, 8 * 2000);

  // Per row group: its span, its first GET's start, its last GET's
  // landing and its last decode's end.
  struct Group {
    double start = 0, end = 0;
    double first_get = 1e300, last_get = -1, last_decode = -1;
  };
  std::map<uint64_t, int> rg_of_span;
  std::map<int, Group> groups;
  for (const auto& span : tracer.spans()) {
    if (span.name != "rowgroup") continue;
    for (const auto& [k, v] : span.args) {
      if (k == "rg") rg_of_span[span.id] = std::stoi(v);
    }
    Group& g = groups[rg_of_span.at(span.id)];
    g.start = span.start;
    g.end = span.end;
  }
  ASSERT_EQ(groups.size(), 8u);
  for (const auto& span : tracer.spans()) {
    auto it = rg_of_span.find(span.parent);
    if (it == rg_of_span.end()) continue;
    Group& g = groups[it->second];
    if (span.name == "get") {
      g.first_get = std::min(g.first_get, span.start);
      g.last_get = std::max(g.last_get, span.end);
    } else if (span.name == "decode") {
      g.last_decode = std::max(g.last_decode, span.end);
    }
  }
  // (a) Row group 2 starts downloading when row group 0 or 1 has landed
  // its last GET, while both are still decompressing.
  EXPECT_LT(groups[2].first_get, groups[0].last_decode);
  EXPECT_LT(groups[2].first_get, groups[1].last_decode);
  // (b) At most kRowGroupParallelism (2) groups download at once, and at
  // most twice that are between start and emit; both bounds are reached.
  std::vector<std::pair<double, double>> downloading, resident;
  for (const auto& [rg, g] : groups) {
    downloading.emplace_back(g.first_get, g.last_get);
    resident.emplace_back(g.start, g.end);
  }
  EXPECT_EQ(MaxOverlap(downloading), 2);
  EXPECT_EQ(MaxOverlap(resident), 4);
}

TEST_F(ScanFixture, FailedGetMidFileHandsEverySlotBack) {
  // Row groups 0-3 intact, then the footer: every GET of a later group
  // reaches past the object's end.
  std::vector<uint8_t> file = PutEightRowGroupFile(&cloud_, "eight.lpq");
  uint32_t footer_len;
  std::memcpy(&footer_len, file.data() + file.size() - 8, 4);
  const size_t tail_len = footer_len + 8;
  auto meta = format::FileMetadata::Parse(
      file.data() + file.size() - tail_len, footer_len);
  ASSERT_TRUE(meta.ok());
  const size_t cut = meta->row_groups[4].columns[0].offset;
  std::vector<uint8_t> truncated(file.begin(), file.begin() + cut);
  truncated.insert(truncated.end(), file.end() - tail_len, file.end());
  ASSERT_TRUE(cloud_.s3()
                  .PutDirect("data", "truncated.lpq",
                             Buffer::FromVector(std::move(truncated)), 2000.0)
                  .ok());
  ScanRun run =
      Scan({FileRef{"data", "truncated.lpq"}}, ScanOptions{}, 1792);
  // The scan returned (no group waits for a slot nobody hands back), with
  // the failed GET's error (a short read, or a range past the end) and
  // every chunk's memory released.
  EXPECT_TRUE(run.status.code() == StatusCode::kIOError ||
              run.status.code() == StatusCode::kOutOfRange)
      << run.status.ToString();
  EXPECT_EQ(run.memory_left, 0);
  EXPECT_EQ(run.rows, 4 * 2000);
}

TEST_F(ScanFixture, MissingFileFailsHandler) {
  Status scan_status = Status::OK();
  cloud::FunctionConfig fn;
  fn.name = "missing";
  fn.memory_mib = 2048;
  fn.handler = [&](cloud::WorkerEnv& env, std::string) -> sim::Async<Status> {
    std::vector<FileRef> files = {FileRef{"data", "nope.lpq"}};
    auto r = co_await S3ParquetScan(env, files, ScanOptions{},
                                    [](const TableChunk&) {
                                      return Status::OK();
                                    });
    scan_status = r.status();
    co_return Status::OK();
  };
  ASSERT_TRUE(cloud_.faas().CreateFunction(fn).ok());
  sim::Spawn([](cloud::Cloud* c) -> sim::Async<void> {
    co_await c->faas().Invoke(c->driver_invoker_profile(), &c->driver_rng(),
                              "missing", "");
  }(&cloud_));
  cloud_.sim().Run();
  EXPECT_TRUE(scan_status.IsNotFound());
}

}  // namespace
}  // namespace lambada::engine
