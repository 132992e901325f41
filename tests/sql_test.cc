#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "core/sql.h"
#include "workload/tpch.h"

namespace lambada::core {
namespace {

TEST(SqlTest, SimpleProjection) {
  auto q = ParseSql("SELECT a, b AS bee FROM 's3://d/*.lpq'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->pattern(), "s3://d/*.lpq");
  ASSERT_EQ(q->ops().size(), 1u);
  EXPECT_EQ(q->ops()[0].kind, PlanOp::Kind::kSelect);
  EXPECT_EQ(q->ops()[0].names, (std::vector<std::string>{"a", "bee"}));
}

TEST(SqlTest, WhereBecomesFilter) {
  auto q = ParseSql(
      "SELECT x FROM 's3://d/*' WHERE x >= 0.05 AND y < 24");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ops().size(), 2u);
  EXPECT_EQ(q->ops()[0].kind, PlanOp::Kind::kFilter);
  EXPECT_NE(q->ops()[0].expr->ToString().find("and"), std::string::npos);
}

TEST(SqlTest, GroupByAggregates) {
  auto q = ParseSql(
      "SELECT g, SUM(x * y) AS s, COUNT(*) AS n, AVG(x) AS a "
      "FROM 's3://d/*' GROUP BY g");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ops().size(), 1u);
  const auto& op = q->ops()[0];
  EXPECT_EQ(op.kind, PlanOp::Kind::kAggregate);
  EXPECT_EQ(op.group_by, (std::vector<std::string>{"g"}));
  ASSERT_EQ(op.aggs.size(), 3u);
  EXPECT_EQ(op.aggs[0].kind, engine::AggKind::kSum);
  EXPECT_EQ(op.aggs[1].kind, engine::AggKind::kCount);
  EXPECT_EQ(op.aggs[2].kind, engine::AggKind::kAvg);
  EXPECT_EQ(op.aggs[1].output_name, "n");
}

TEST(SqlTest, GlobalAggregateWithoutGroupBy) {
  auto q = ParseSql("SELECT SUM(v) FROM 's3://d/*' WHERE v > 0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& op = q->ops().back();
  EXPECT_EQ(op.kind, PlanOp::Kind::kAggregate);
  EXPECT_TRUE(op.group_by.empty());
}

TEST(SqlTest, BetweenExpandsToRange) {
  auto q = ParseSql(
      "SELECT COUNT(*) FROM 's3://d/*' WHERE d BETWEEN 5 AND 9");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto bounds = engine::ExtractColumnBounds(q->ops()[0].expr);
  ASSERT_TRUE(bounds.count("d"));
  EXPECT_DOUBLE_EQ(bounds["d"].lo, 5);
  EXPECT_DOUBLE_EQ(bounds["d"].hi, 9);
}

TEST(SqlTest, DateLiteralMatchesTpchDays) {
  auto q = ParseSql(
      "SELECT COUNT(*) FROM 's3://d/*' "
      "WHERE l_shipdate < DATE '1995-01-01'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto bounds = engine::ExtractColumnBounds(q->ops()[0].expr);
  ASSERT_TRUE(bounds.count("l_shipdate"));
  EXPECT_DOUBLE_EQ(bounds["l_shipdate"].hi,
                   static_cast<double>(workload::TpchDate(1995, 1, 1)));
}

TEST(SqlTest, TpchQ6InSqlPlansLikeBuilderQ6) {
  auto sql = ParseSql(
      "SELECT SUM(l_extendedprice * l_discount) AS revenue "
      "FROM 's3://tpch/li/*.lpq' "
      "WHERE l_shipdate >= DATE '1994-01-01' "
      "AND l_shipdate < DATE '1995-01-01' "
      "AND l_discount BETWEEN 0.05 AND 0.07 "
      "AND l_quantity < 24.0");
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto phys = OptimizeQuery(*sql);
  ASSERT_TRUE(phys.ok());
  // Same pruning bounds as the builder version of Q6.
  auto bounds = engine::ExtractColumnBounds(phys->fragment.scan_filter);
  EXPECT_DOUBLE_EQ(bounds["l_shipdate"].lo,
                   static_cast<double>(workload::TpchDate(1994, 1, 1)));
  EXPECT_DOUBLE_EQ(bounds["l_discount"].lo, 0.05);
  EXPECT_DOUBLE_EQ(bounds["l_quantity"].hi, 24.0);
  // Projection push-down covers exactly the four referenced columns.
  EXPECT_EQ(phys->fragment.scan_projection.size(), 4u);
  EXPECT_TRUE(phys->has_final_aggregate);
}

TEST(SqlTest, OperatorPrecedence) {
  auto q = ParseSql("SELECT a + b * c AS v FROM 's3://d/*'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ops()[0].exprs[0]->ToString(), "(a + (b * c))");
  auto q2 = ParseSql("SELECT (a + b) * c AS v FROM 's3://d/*'");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->ops()[0].exprs[0]->ToString(), "((a + b) * c)");
}

TEST(SqlTest, UnaryMinus) {
  auto q = ParseSql("SELECT -x AS neg FROM 's3://d/*'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ops()[0].exprs[0]->ToString(), "(0 - x)");
}

TEST(SqlTest, CaseInsensitiveKeywords) {
  auto q = ParseSql("select Sum(x) from 's3://d/*' where x > 1 group by g");
  // "group by g" with no g in select: valid (keys need not be selected).
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST(SqlTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM 's3://d/*'").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM no_quotes").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM 's3://d/*' WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT a, SUM(b) FROM 's3://d/*'").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM 's3://d/*' GROUP BY").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM 's3://d/*' trailing junk").ok());
  EXPECT_FALSE(ParseSql("SELECT SUM(a FROM 's3://d/*'").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM 's3://d/*' WHERE x ! 1").ok());
  EXPECT_FALSE(
      ParseSql("SELECT COUNT(*) FROM 's3://d/*' WHERE d < DATE 'oops'").ok());
}

// ---------------------------------------------------------------------------
// JOIN ... ON
// ---------------------------------------------------------------------------

TEST(SqlJoinTest, InnerJoinParsesToJoinOp) {
  auto q = ParseSql(
      "SELECT l_shipmode, COUNT(*) AS n "
      "FROM 's3://tpch/li/*.lpq' "
      "JOIN 's3://tpch/orders/*.lpq' ON l_orderkey = o_orderkey "
      "WHERE o_orderpriority <= 1 "
      "GROUP BY l_shipmode");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ops().size(), 3u);  // join, filter (WHERE), aggregate.
  const auto& jop = q->ops()[0];
  ASSERT_EQ(jop.kind, PlanOp::Kind::kJoin);
  EXPECT_EQ(jop.join->type, engine::JoinType::kInner);
  EXPECT_EQ(jop.join->probe_keys, (std::vector<std::string>{"l_orderkey"}));
  EXPECT_EQ(jop.join->build_keys, (std::vector<std::string>{"o_orderkey"}));
  EXPECT_EQ(jop.join->build_pattern, "s3://tpch/orders/*.lpq");
  EXPECT_TRUE(jop.join->build_ops.empty());
  EXPECT_EQ(q->ops()[1].kind, PlanOp::Kind::kFilter);
  // And the whole thing plans as a two-sided exchange fragment.
  auto phys = OptimizeQuery(*q);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_EQ(phys->build_inputs.size(), 1u);
  EXPECT_EQ(phys->build_inputs[0].pattern, "s3://tpch/orders/*.lpq");
  EXPECT_GE(phys->fragment.JoinIndex(), 1);
}

TEST(SqlJoinTest, SemiJoinVariants) {
  for (const char* prefix : {"SEMI JOIN", "LEFT SEMI JOIN"}) {
    auto q = ParseSql(std::string("SELECT COUNT(*) FROM 's3://d/a/*' ") +
                      prefix + " 's3://d/b/*' ON k = k2");
    ASSERT_TRUE(q.ok()) << prefix << ": " << q.status().ToString();
    ASSERT_EQ(q->ops()[0].kind, PlanOp::Kind::kJoin);
    EXPECT_EQ(q->ops()[0].join->type, engine::JoinType::kLeftSemi);
  }
}

TEST(SqlJoinTest, MultiKeyOnConjunction) {
  auto q = ParseSql(
      "SELECT COUNT(*) FROM 's3://d/a/*' JOIN 's3://d/b/*' "
      "ON k = k2 AND j = j2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->ops()[0].join->probe_keys,
            (std::vector<std::string>{"k", "j"}));
  EXPECT_EQ(q->ops()[0].join->build_keys,
            (std::vector<std::string>{"k2", "j2"}));
}

TEST(SqlJoinTest, BuildKeyReferencesRewriteToProbeKey) {
  // The join output drops o_orderkey (build key), so references to it in
  // WHERE / SELECT / GROUP BY must resolve to l_orderkey instead.
  auto q = ParseSql(
      "SELECT o_orderkey, COUNT(*) AS n FROM 's3://d/li/*' "
      "JOIN 's3://d/orders/*' ON l_orderkey = o_orderkey "
      "WHERE o_orderkey > 100 GROUP BY o_orderkey");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ops().size(), 3u);  // join, filter, aggregate.
  const auto& filter = q->ops()[1];
  ASSERT_EQ(filter.kind, PlanOp::Kind::kFilter);
  EXPECT_NE(filter.expr->ToString().find("l_orderkey"), std::string::npos);
  EXPECT_EQ(filter.expr->ToString().find("o_orderkey"), std::string::npos);
  EXPECT_EQ(q->ops().back().group_by,
            (std::vector<std::string>{"l_orderkey"}));
  ASSERT_TRUE(OptimizeQuery(*q).ok());
}

TEST(SqlJoinTest, MalformedJoinRejected) {
  // Missing build pattern.
  EXPECT_FALSE(
      ParseSql("SELECT a FROM 's3://d/a/*' JOIN ON k = k2").ok());
  // Unquoted build pattern.
  EXPECT_FALSE(
      ParseSql("SELECT a FROM 's3://d/a/*' JOIN tbl ON k = k2").ok());
  // Missing ON clause.
  EXPECT_FALSE(ParseSql("SELECT a FROM 's3://d/a/*' JOIN 's3://d/b/*'").ok());
  // ON with a non-equality comparison.
  EXPECT_FALSE(
      ParseSql("SELECT a FROM 's3://d/a/*' JOIN 's3://d/b/*' ON k < k2")
          .ok());
  // ON with a literal operand.
  EXPECT_FALSE(
      ParseSql("SELECT a FROM 's3://d/a/*' JOIN 's3://d/b/*' ON k = 5")
          .ok());
  // Trailing AND.
  EXPECT_FALSE(
      ParseSql(
          "SELECT a FROM 's3://d/a/*' JOIN 's3://d/b/*' ON k = k2 AND")
          .ok());
  // LEFT without SEMI JOIN.
  EXPECT_FALSE(
      ParseSql("SELECT a FROM 's3://d/a/*' LEFT JOIN 's3://d/b/*' "
               "ON k = k2")
          .ok());
  // A second JOIN clause chains (multi-join pipeline).
  auto two = ParseSql(
      "SELECT a FROM 's3://d/a/*' JOIN 's3://d/b/*' ON k = k2 "
      "JOIN 's3://d/c/*' ON j = j2");
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_EQ(two->ops().size(), 3u);  // join, join, select.
  EXPECT_EQ(two->ops()[0].kind, PlanOp::Kind::kJoin);
  EXPECT_EQ(two->ops()[1].kind, PlanOp::Kind::kJoin);
  EXPECT_EQ(two->ops()[1].join->build_pattern, "s3://d/c/*");
}

TEST(SqlJoinTest, RenamesChainAcrossJoins) {
  // The first join drops build key `k2` in favour of probe key `k`; the
  // second ON clause may still say `k2` and must be rewritten to `k`.
  auto q = ParseSql(
      "SELECT a FROM 's3://d/a/*' JOIN 's3://d/b/*' ON k = k2 "
      "JOIN 's3://d/c/*' ON k2 = k3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ops().size(), 3u);
  ASSERT_EQ(q->ops()[1].join->probe_keys.size(), 1u);
  EXPECT_EQ(q->ops()[1].join->probe_keys[0], "k");
  EXPECT_EQ(q->ops()[1].join->build_keys[0], "k3");
}

TEST(SqlHavingTest, HavingBecomesTrailingFilter) {
  auto q = ParseSql(
      "SELECT g, SUM(x) AS s FROM 's3://d/t/*' GROUP BY g HAVING s > 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ops().size(), 2u);
  EXPECT_EQ(q->ops()[0].kind, PlanOp::Kind::kAggregate);
  EXPECT_EQ(q->ops()[1].kind, PlanOp::Kind::kFilter);

  // The planner hoists the post-aggregate filter into the driver scope.
  auto phys = OptimizeQuery(*q);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_TRUE(phys->has_final_aggregate);
  ASSERT_EQ(phys->driver_ops.size(), 1u);
  EXPECT_EQ(phys->driver_ops[0].kind, PlanOp::Kind::kFilter);
}

TEST(SqlHavingTest, HavingWithoutGroupByRejected) {
  EXPECT_FALSE(
      ParseSql("SELECT a FROM 's3://d/t/*' HAVING a > 5").ok());
}

TEST(SqlExplainTest, GoldenJoinPlan) {
  // Golden text for a catalog-less join plan: the optimizer keeps the
  // syntactic order, picks partitioned exchanges, and renders unknown
  // cardinalities as "?". Any change here is a deliberate format change.
  auto text = ExplainSql(
      "EXPLAIN SELECT l_shipmode, COUNT(*) AS n "
      "FROM 's3://tpch/li/*.lpq' "
      "JOIN 's3://tpch/orders/*.lpq' ON l_orderkey = o_orderkey "
      "GROUP BY l_shipmode");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text,
            "plan for s3://tpch/li/*.lpq\n"
            "  scan probe=s3://tpch/li/*.lpq projection=[*]\n"
            "  exchange keys=[l_orderkey] levels=2\n"
            "  join[0] inner build=s3://tpch/orders/*.lpq"
            " on l_orderkey=o_orderkey strategy=partitioned\n"
            "    est rows: probe=? build=? out=?\n"
            "    cost: partitioned=$0.000022 broadcast=n/a\n"
            "  aggregate group=[l_shipmode] aggs=[count as n]\n");
}

TEST(SqlExplainTest, GoldenSingleTablePlan) {
  auto text = ExplainSql(
      "EXPLAIN SELECT g, SUM(x) AS s FROM 's3://d/t/*' "
      "WHERE x > 3 GROUP BY g HAVING s > 5");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text,
            "plan for s3://d/t/*\n"
            "  scan s3://d/t/* filter=(x > 3) projection=[g, x]\n"
            "  aggregate group=[g] aggs=[sum as s]\n"
            "  having (s > 5)\n");
}

TEST(SqlExplainTest, ExplainRequiresKeyword) {
  auto r = ExplainSql("SELECT a FROM 's3://d/t/*'");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace lambada::core
