#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "core/driver.h"
#include "core/stats_index.h"
#include "workload/tpch.h"

namespace lambada::core {
namespace {

class StatsIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cloud_ = std::make_unique<cloud::Cloud>();
    driver_ = std::make_unique<Driver>(cloud_.get());
    ASSERT_TRUE(driver_->Install().ok());
    index_ = std::make_unique<StatsIndex>(&cloud_->ddb());
    workload::LoadOptions opts;
    opts.num_rows = 16000;
    opts.num_files = 16;
    opts.row_groups_per_file = 2;
    opts.stats_index = index_.get();
    opts.dataset = "tpch/li/";
    ASSERT_TRUE(
        workload::LoadLineitem(&cloud_->s3(), "tpch", "li/", opts).ok());
  }

  std::unique_ptr<cloud::Cloud> cloud_;
  std::unique_ptr<Driver> driver_;
  std::unique_ptr<StatsIndex> index_;
};

TEST_F(StatsIndexFixture, LookupReturnsPerFileBounds) {
  std::vector<StatsIndex::FileBounds> bounds;
  sim::Spawn([](cloud::Cloud* c, StatsIndex* idx,
                std::vector<StatsIndex::FileBounds>* out)
                 -> sim::Async<void> {
    auto r = co_await idx->Lookup(c->driver_net(), "tpch/li/",
                                  "l_shipdate");
    if (r.ok()) *out = *r;
  }(cloud_.get(), index_.get(), &bounds));
  cloud_->sim().Run();
  ASSERT_EQ(bounds.size(), 16u);
  // The relation is sorted by l_shipdate: file bounds are ascending and
  // (nearly) disjoint.
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GE(bounds[i].min, bounds[i - 1].min);
    EXPECT_GE(bounds[i].max, bounds[i - 1].max);
  }
  EXPECT_EQ(cloud_->ledger().totals().ddb_reads, 1);
}

TEST_F(StatsIndexFixture, PruneFilesDropsDisjointFiles) {
  auto files = cloud_->s3().ListDirect("tpch", "li/");
  std::vector<std::string> keys;
  for (const auto& f : files) keys.push_back(f.key);
  // One year of seven: most files should be pruned.
  auto predicate =
      (engine::Col("l_shipdate") >=
       engine::Lit(workload::TpchDate(1994, 1, 1))) &&
      (engine::Col("l_shipdate") < engine::Lit(workload::TpchDate(1995, 1, 1)));
  std::vector<std::string> kept;
  sim::Spawn([](cloud::Cloud* c, StatsIndex* idx,
                std::vector<std::string> file_keys, engine::ExprPtr pred,
                std::vector<std::string>* out) -> sim::Async<void> {
    auto r = co_await idx->PruneFiles(c->driver_net(), "tpch/li/",
                                      std::move(file_keys), pred);
    if (r.ok()) *out = *r;
  }(cloud_.get(), index_.get(), keys, predicate, &kept));
  cloud_->sim().Run();
  EXPECT_LT(kept.size(), 6u);
  EXPECT_GE(kept.size(), 1u);
}

TEST_F(StatsIndexFixture, UnindexedColumnKeepsEverything) {
  auto files = cloud_->s3().ListDirect("tpch", "li/");
  std::vector<std::string> keys;
  for (const auto& f : files) keys.push_back(f.key);
  auto predicate = engine::Col("not_a_column") < engine::Lit(0);
  std::vector<std::string> kept;
  sim::Spawn([](cloud::Cloud* c, StatsIndex* idx,
                std::vector<std::string> file_keys, engine::ExprPtr pred,
                std::vector<std::string>* out) -> sim::Async<void> {
    auto r = co_await idx->PruneFiles(c->driver_net(), "tpch/li/",
                                      std::move(file_keys), pred);
    if (r.ok()) *out = *r;
  }(cloud_.get(), index_.get(), keys, predicate, &kept));
  cloud_->sim().Run();
  EXPECT_EQ(kept.size(), keys.size());
}

TEST_F(StatsIndexFixture, DriverSkipsWorkersWithIndex) {
  auto q6 = workload::TpchQ6("s3://tpch/li/*.lpq");
  RunOptions without;
  auto base = driver_->RunToCompletion(q6, without);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  RunOptions with;
  with.use_stats_index = true;
  auto indexed = driver_->RunToCompletion(q6, with);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  // Same answer...
  ASSERT_EQ(indexed->result.num_rows(), 1u);
  EXPECT_NEAR(indexed->result.column(0).f64()[0],
              base->result.column(0).f64()[0], 1e-6);
  // ... with far fewer workers started (most files can't match Q6's
  // one-year ship-date range).
  EXPECT_LT(indexed->workers, base->workers / 2);
  EXPECT_LT(indexed->cost.lambda_invocations,
            base->cost.lambda_invocations / 2);
}

TEST_F(StatsIndexFixture, JoinCatalogLookupsBillTheQuery) {
  // A join's optimizer catalog comes from stats-index lookups: they are
  // the query's own DynamoDB reads, so with an attribution ledger every
  // one lands there, exactly as on the account's ledger.
  workload::LoadOptions oo;
  oo.num_rows = 4000;
  oo.num_files = 4;
  oo.seed = 13;
  oo.stats_index = index_.get();
  oo.dataset = "tpch/orders/";
  ASSERT_TRUE(
      workload::LoadOrders(&cloud_->s3(), "tpch", "orders/", oo).ok());
  cloud::CostLedger attribution;
  RunOptions with;
  with.use_stats_index = true;
  with.attribution = &attribution;
  const cloud::CostSnapshot before = cloud_->ledger().Snapshot();
  auto report = driver_->RunToCompletion(
      workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq"),
      with);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->join_choices.size(), 1u);
  const cloud::CostSnapshot global = cloud_->ledger().Snapshot() - before;
  EXPECT_GT(global.ddb_reads, 0);
  EXPECT_EQ(attribution.Snapshot().ddb_reads, global.ddb_reads);
}

TEST_F(StatsIndexFixture, FailedPruneScansEverythingAndSaysSo) {
  auto q6 = workload::TpchQ6("s3://tpch/li/*.lpq");
  auto base = driver_->RunToCompletion(q6, RunOptions{});
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  // Cut the l_shipdate item mid-record, as a torn write would leave it.
  const std::string key = "tpch/li/#l_shipdate";
  auto item = cloud_->ddb().GetDirect(index_->table(), key);
  ASSERT_TRUE(item.ok());
  ASSERT_TRUE(cloud_->ddb()
                  .PutDirect(index_->table(), key,
                             item->substr(0, item->size() / 2 + 3))
                  .ok());
  RunOptions with;
  with.use_stats_index = true;
  auto indexed = driver_->RunToCompletion(q6, with);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_EQ(indexed->result.num_rows(), 1u);
  EXPECT_NEAR(indexed->result.column(0).f64()[0],
              base->result.column(0).f64()[0], 1e-6);
  EXPECT_EQ(indexed->workers, base->workers);
  EXPECT_NE(indexed->explain_text.find("  stats index: prune failed ("),
            std::string::npos)
      << indexed->explain_text;
  EXPECT_NE(indexed->explain_text.find("), scanning all 16 files\n"),
            std::string::npos)
      << indexed->explain_text;
  // A healthy index prunes quietly.
  EXPECT_EQ(base->explain_text.find("stats index:"), std::string::npos);
}

TEST_F(StatsIndexFixture, EveryFilePrunedScansEverythingAndSaysSo) {
  // No row ships in 2010: the index drops every file, and the driver falls
  // back to scanning all of them rather than running no worker at all.
  auto q = Query::FromParquet("s3://tpch/li/*.lpq")
               .Filter(engine::Col("l_shipdate") >=
                       engine::Lit(workload::TpchDate(2010, 1, 1)))
               .ReduceCount();
  auto base = driver_->RunToCompletion(q, RunOptions{});
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  RunOptions with;
  with.use_stats_index = true;
  auto indexed = driver_->RunToCompletion(q, with);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_EQ(indexed->workers, base->workers);
  EXPECT_EQ(indexed->result.num_rows(), base->result.num_rows());
  EXPECT_NE(indexed->explain_text.find(
                "  stats index: every file pruned, scanning all 16 files\n"),
            std::string::npos)
      << indexed->explain_text;
}

TEST_F(StatsIndexFixture, IndexNeverDropsMatchingRows) {
  // Property: for a sweep of ship-date ranges, the indexed run returns the
  // same count as the unindexed run.
  for (int year : {1992, 1994, 1996, 1998}) {
    auto q = Query::FromParquet("s3://tpch/li/*.lpq")
                 .Filter(engine::Col("l_shipdate") >=
                         engine::Lit(workload::TpchDate(year, 1, 1)))
                 .Filter(engine::Col("l_shipdate") <
                         engine::Lit(workload::TpchDate(year + 1, 1, 1)))
                 .ReduceCount();
    auto base = driver_->RunToCompletion(q, RunOptions{});
    ASSERT_TRUE(base.ok());
    RunOptions with;
    with.use_stats_index = true;
    auto indexed = driver_->RunToCompletion(q, with);
    ASSERT_TRUE(indexed.ok());
    EXPECT_EQ(indexed->result.column(0).i64()[0],
              base->result.column(0).i64()[0])
        << "year " << year;
  }
}

}  // namespace
}  // namespace lambada::core
