#include <gtest/gtest.h>

#include "test_util.h"

#include <cmath>
#include <optional>

#include "cloud/cloud.h"
#include "common/units.h"
#include "core/driver.h"
#include "engine/chunk_serde.h"
#include "workload/tpch.h"

namespace lambada::workload {
namespace {

using engine::TableChunk;

TEST(TpchDateTest, KnownDates) {
  EXPECT_EQ(TpchDate(1992, 1, 1), 0);
  EXPECT_EQ(TpchDate(1992, 1, 2), 1);
  EXPECT_EQ(TpchDate(1992, 2, 1), 31);
  EXPECT_EQ(TpchDate(1993, 1, 1), 366);  // 1992 is a leap year.
  EXPECT_EQ(TpchDate(1998, 12, 1), 2526);
  EXPECT_EQ(Q1CutoffDate(), TpchDate(1998, 9, 2));
}

TEST(TpchGenTest, SchemaAndSortedness) {
  TableChunk li = GenerateLineitem(20000, 42);
  EXPECT_EQ(li.num_rows(), 20000u);
  EXPECT_EQ(li.num_columns(), 16u);
  EXPECT_EQ(li.schema()->FieldIndex("l_shipdate"), 10);
  const auto& ship = li.column(10).i64();
  for (size_t i = 1; i < ship.size(); ++i) {
    ASSERT_LE(ship[i - 1], ship[i]) << "not sorted by l_shipdate";
  }
}

TEST(TpchGenTest, ValueDistributions) {
  TableChunk li = GenerateLineitem(50000, 1);
  const auto& qty = li.column(4).f64();
  const auto& disc = li.column(6).f64();
  const auto& tax = li.column(7).f64();
  const auto& rf = li.column(8).i64();
  const auto& ls = li.column(9).i64();
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ASSERT_GE(qty[i], 1.0);
    ASSERT_LE(qty[i], 50.0);
    ASSERT_GE(disc[i], 0.0);
    ASSERT_LE(disc[i], 0.10 + 1e-12);
    ASSERT_GE(tax[i], 0.0);
    ASSERT_LE(tax[i], 0.08 + 1e-12);
    ASSERT_TRUE(rf[i] == 0 || rf[i] == 1 || rf[i] == 2);
    ASSERT_TRUE(ls[i] == 0 || ls[i] == 1);
  }
}

TEST(TpchGenTest, DeterministicForSeed) {
  TableChunk a = GenerateLineitem(1000, 5);
  TableChunk b = GenerateLineitem(1000, 5);
  EXPECT_EQ(a.column(0).i64(), b.column(0).i64());
  EXPECT_EQ(a.column(5).f64(), b.column(5).f64());
}

TEST(TpchGenTest, Q1SelectivityAround98Percent) {
  TableChunk li = GenerateLineitem(50000, 9);
  const auto& ship = li.column(10).i64();
  int64_t selected = 0;
  for (int64_t d : ship) {
    if (d <= Q1CutoffDate()) ++selected;
  }
  double sel = static_cast<double>(selected) / ship.size();
  EXPECT_GT(sel, 0.95);
  EXPECT_LT(sel, 0.995);
}

TEST(TpchGenTest, Q6SelectivityAround2Percent) {
  TableChunk li = GenerateLineitem(100000, 9);
  const auto& ship = li.column(10).i64();
  const auto& disc = li.column(6).f64();
  const auto& qty = li.column(4).f64();
  int64_t selected = 0;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    if (ship[i] >= TpchDate(1994, 1, 1) && ship[i] < TpchDate(1995, 1, 1) &&
        disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24.0) {
      ++selected;
    }
  }
  double sel = static_cast<double>(selected) / li.num_rows();
  EXPECT_GT(sel, 0.010);
  EXPECT_LT(sel, 0.035);
}

TEST(TpchLoadTest, LoadsFilesWithVirtualScale) {
  cloud::Cloud cloud;
  LoadOptions opts;
  opts.num_rows = 8000;
  opts.num_files = 4;
  opts.row_groups_per_file = 4;
  opts.virtual_bytes_per_file = 500 * kMB;
  auto info = LoadLineitem(&cloud.s3(), "tpch", "sf/", opts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto files = cloud.s3().ListDirect("tpch", "sf/");
  ASSERT_EQ(files.size(), 4u);
  // 500 MB is the PLAIN file's virtual size; the auto-encoded file models
  // fewer bytes by exactly the encodings' savings.
  for (const auto& f : files) {
    EXPECT_LE(static_cast<double>(f.size), 501e6);
    EXPECT_GE(static_cast<double>(f.size), 200e6);
  }
  EXPECT_LE(static_cast<double>(info->virtual_bytes), 4 * 501e6);

  // A plain-encoded fixture hits the target exactly.
  opts.auto_encoding = false;
  auto plain_info = LoadLineitem(&cloud.s3(), "tpch", "sf-plain/", opts);
  ASSERT_TRUE(plain_info.ok());
  for (const auto& f : cloud.s3().ListDirect("tpch", "sf-plain/")) {
    EXPECT_NEAR(static_cast<double>(f.size), 500e6, 1e6);
  }
  EXPECT_NEAR(static_cast<double>(plain_info->virtual_bytes), 4 * 500e6,
              4e6);
}

/// FNV-1a (64-bit) over every object under `prefix`, in key order: its key,
/// then its bytes.
uint64_t HashObjects(const cloud::ObjectStore& s3, const std::string& bucket,
                     const std::string& prefix) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& info : s3.ListDirect(bucket, prefix)) {
    mix(reinterpret_cast<const uint8_t*>(info.key.data()), info.key.size());
    auto data = s3.GetDirect(bucket, info.key);
    EXPECT_TRUE(data.ok());
    if (data.ok()) mix((*data)->data(), (*data)->size());
  }
  return h;
}

TEST(TpchLoadTest, StoredBytesArePinned) {
  // Every byte LoadLineitem stores — slicing, encoding selection and both
  // LZ codecs — is pinned for one seed. Rows do not divide evenly into
  // files or row groups, so short slices and tail groups are covered. A
  // change here changes every dataset the experiments read.
  struct Case {
    compress::CodecId codec;
    bool auto_encoding;
    uint64_t hash;
  };
  const Case cases[] = {
      {compress::CodecId::kHeavy, true, 3962032606708069045ULL},
      {compress::CodecId::kLz, true, 9040090428384268850ULL},
      {compress::CodecId::kHeavy, false, 4597362434860674681ULL},
  };
  for (const Case& c : cases) {
    cloud::Cloud cloud;
    LoadOptions opts;
    opts.num_rows = 10001;
    opts.num_files = 7;
    opts.row_groups_per_file = 3;
    opts.codec = c.codec;
    opts.auto_encoding = c.auto_encoding;
    opts.seed = 3;
    ASSERT_TRUE(LoadLineitem(&cloud.s3(), "tpch", "li/", opts).ok());
    EXPECT_EQ(HashObjects(cloud.s3(), "tpch", "li/"), c.hash)
        << compress::CodecName(c.codec) << " auto=" << c.auto_encoding;
  }
}

class TpchQueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cloud_ = std::make_unique<cloud::Cloud>();
    driver_ = std::make_unique<core::Driver>(cloud_.get());
    ASSERT_TRUE(driver_->Install().ok());
    LoadOptions opts;
    opts.num_rows = 30000;
    opts.num_files = 8;
    opts.row_groups_per_file = 4;
    opts.seed = 77;
    ASSERT_TRUE(LoadLineitem(&cloud_->s3(), "tpch", "li/", opts).ok());
    reference_input_ = GenerateLineitem(opts.num_rows, opts.seed);
  }

  std::unique_ptr<cloud::Cloud> cloud_;
  std::unique_ptr<core::Driver> driver_;
  TableChunk reference_input_;
};

TEST_F(TpchQueryFixture, Q1MatchesReference) {
  auto report = driver_->RunToCompletion(TpchQ1("s3://tpch/li/*.lpq"),
                                         core::RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  TableChunk expected = ReferenceQ1(reference_input_);
  const TableChunk& got = report->result;
  ASSERT_EQ(got.num_rows(), expected.num_rows());
  ASSERT_EQ(got.num_columns(), expected.num_columns());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    for (size_t r = 0; r < got.num_rows(); ++r) {
      if (got.column(c).type() == engine::DataType::kInt64) {
        EXPECT_EQ(got.column(c).i64()[r], expected.column(c).i64()[r])
            << "col " << c << " row " << r;
      } else {
        double e = expected.column(c).f64()[r];
        EXPECT_NEAR(got.column(c).f64()[r], e,
                    std::abs(e) * 1e-9 + 1e-9)
            << "col " << c << " row " << r;
      }
    }
  }
  // Q1 prunes only the tail of the relation (ships after 1998-09-02).
  const int64_t pruned =
      report->fleet_metrics.counter(obs::Metric::kRowGroupsPruned);
  const int64_t total =
      report->fleet_metrics.counter(obs::Metric::kRowGroupsTotal);
  EXPECT_GT(total, 0);
  EXPECT_LT(static_cast<double>(pruned) / total, 0.15);
}

TEST_F(TpchQueryFixture, Q6MatchesReferenceAndPrunesMost) {
  auto report = driver_->RunToCompletion(TpchQ6("s3://tpch/li/*.lpq"),
                                         core::RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  double expected = ReferenceQ6(reference_input_);
  ASSERT_EQ(report->result.num_rows(), 1u);
  EXPECT_NEAR(report->result.column(0).f64()[0], expected,
              std::abs(expected) * 1e-9 + 1e-9);
  // The relation is sorted by l_shipdate and Q6 selects one year of seven:
  // most row groups must be pruned via min/max statistics (Section 5.3).
  const int64_t pruned =
      report->fleet_metrics.counter(obs::Metric::kRowGroupsPruned);
  const int64_t total =
      report->fleet_metrics.counter(obs::Metric::kRowGroupsTotal);
  double frac = static_cast<double>(pruned) / total;
  EXPECT_GT(frac, 0.6);
  EXPECT_LT(frac, 0.95);
}

TEST_F(TpchQueryFixture, Q6CheaperAndLighterThanQ1) {
  auto q1 = driver_->RunToCompletion(TpchQ1("s3://tpch/li/*.lpq"),
                                     core::RunOptions{});
  auto q6 = driver_->RunToCompletion(TpchQ6("s3://tpch/li/*.lpq"),
                                     core::RunOptions{});
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q6.ok());
  // Q6 reads fewer bytes (pruning + fewer columns).
  EXPECT_LT(q6->cost.s3_bytes_read, q1->cost.s3_bytes_read);
}

TEST_F(TpchQueryFixture, CountOverZeroMatchingRowsIsOneRowHoldingZero) {
  // No row ships in 2010: min/max pruning empties every worker's scan, and
  // the global COUNT must still answer one row holding 0, as in SQL.
  auto q = core::Query::FromParquet("s3://tpch/li/*.lpq")
               .Filter(engine::Col("l_shipdate") >=
                       engine::Lit(TpchDate(2010, 1, 1)))
               .ReduceCount();
  auto report = driver_->RunToCompletion(q, core::RunOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.num_rows(), 1u);
  ASSERT_EQ(report->result.num_columns(), 1u);
  EXPECT_EQ(report->result.column(0).i64()[0], 0);
}

// ---------------------------------------------------------------------------
// Distributed joins: Q12 (orders) and Q14 (part)
// ---------------------------------------------------------------------------

TEST(TpchGenJoinTest, OrdersAndPartCoverTheLineitemKeys) {
  TableChunk li = GenerateLineitem(20000, 7);
  int64_t max_order = MaxOrderKey(li);
  EXPECT_GT(max_order, 0);
  TableChunk orders = GenerateOrders(max_order, 9);
  EXPECT_EQ(orders.num_rows(), static_cast<size_t>(max_order));
  EXPECT_EQ(orders.num_columns(), 9u);
  // o_orderkey is dense 1..N, so every l_orderkey has its order.
  EXPECT_EQ(orders.column(0).i64().front(), 1);
  EXPECT_EQ(orders.column(0).i64().back(), max_order);
  TableChunk part = GeneratePart(kPartCount, 9);
  EXPECT_EQ(part.num_rows(), static_cast<size_t>(kPartCount));
  const auto& types = part.column(4).i64();
  int64_t promo = 0;
  for (int64_t t : types) {
    ASSERT_GE(t, 0);
    ASSERT_LE(t, 149);
    if (t < kPromoTypeCutoff) ++promo;
  }
  // ~1/6 of types are promotional, as in TPC-H.
  double frac = static_cast<double>(promo) / static_cast<double>(kPartCount);
  EXPECT_GT(frac, 0.13);
  EXPECT_LT(frac, 0.21);
}

TEST(TpchGenJoinTest, CustomerCoversTheOrderCustkeys) {
  TableChunk customer = GenerateCustomer(kCustomerCount, 5);
  EXPECT_EQ(customer.num_rows(), static_cast<size_t>(kCustomerCount));
  EXPECT_EQ(customer.num_columns(), 6u);
  EXPECT_EQ(customer.column(0).i64().front(), 1);
  EXPECT_EQ(customer.column(0).i64().back(), kCustomerCount);
  const auto& seg = customer.column(3).i64();
  int64_t building = 0;
  for (int64_t s : seg) {
    ASSERT_GE(s, 0);
    ASSERT_LE(s, 4);
    if (s == kMktSegmentBuilding) ++building;
  }
  // Five segments, uniform: Q3 keeps ~1/5 of customers.
  double frac =
      static_cast<double>(building) / static_cast<double>(kCustomerCount);
  EXPECT_GT(frac, 0.17);
  EXPECT_LT(frac, 0.23);
}

/// Runs a join query through the simulated fleet on a fresh cloud.
class TpchJoinFixture : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 24000;
  static constexpr uint64_t kSeed = 77;

  void SetUp() override {
    reference_lineitem_ = GenerateLineitem(kRows, kSeed);
    orders_rows_ = MaxOrderKey(reference_lineitem_);
    reference_orders_ = GenerateOrders(orders_rows_, 123);
    reference_part_ = GeneratePart(kPartCount, 321);
    reference_customer_ = GenerateCustomer(kCustomerCount, 555);
  }

  core::QueryReport RunFleetReport(
      int query, core::JoinStrategyOverride strategy =
                     core::JoinStrategyOverride::kAuto) {
    cloud::Cloud cloud;
    core::Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    LoadOptions li;
    li.num_rows = kRows;
    li.num_files = 8;
    li.row_groups_per_file = 4;
    li.seed = kSeed;
    LAMBADA_CHECK_OK(LoadLineitem(&cloud.s3(), "tpch", "li/", li));
    auto load_orders = [&] {
      LoadOptions oo;
      oo.num_rows = orders_rows_;
      oo.num_files = 4;
      oo.seed = 123;
      LAMBADA_CHECK_OK(LoadOrders(&cloud.s3(), "tpch", "orders/", oo));
    };
    auto load_part = [&] {
      LoadOptions po;
      po.num_rows = kPartCount;
      po.num_files = 4;
      po.seed = 321;
      LAMBADA_CHECK_OK(LoadPart(&cloud.s3(), "tpch", "part/", po));
    };
    auto load_customer = [&] {
      LoadOptions co;
      co.num_rows = kCustomerCount;
      co.num_files = 2;
      co.seed = 555;
      LAMBADA_CHECK_OK(LoadCustomer(&cloud.s3(), "tpch", "customer/", co));
    };
    std::optional<core::Query> q;
    switch (query) {
      case 3:
        load_orders();
        load_customer();
        q = TpchQ3("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq",
                   "s3://tpch/customer/*.lpq");
        break;
      case 12:
        load_orders();
        q = TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq");
        break;
      case 14:
        load_part();
        q = TpchQ14("s3://tpch/li/*.lpq", "s3://tpch/part/*.lpq");
        break;
      case 18:
        load_orders();
        load_customer();
        q = TpchQ18("s3://tpch/li/*.lpq", "s3://tpch/orders/*.lpq",
                    "s3://tpch/customer/*.lpq", kQ18MinQuantity);
        break;
      default:
        load_part();
        q = TpchQ19("s3://tpch/li/*.lpq", "s3://tpch/part/*.lpq");
        break;
    }
    core::RunOptions ropts;
    ropts.join_strategy = strategy;
    auto report = driver.RunToCompletion(*q, ropts);
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    LAMBADA_CHECK_EQ(report->workers, 8);
    return std::move(*report);
  }

  TableChunk RunFleet(int query) { return RunFleetReport(query).result; }

  /// TPC-H says 300, but the generator's 1..7 lines of 1..50 units make
  /// that nearly empty at 24k rows; 250 keeps a few dozen groups.
  static constexpr double kQ18MinQuantity = 250.0;

  TableChunk reference_lineitem_;
  TableChunk reference_orders_;
  TableChunk reference_part_;
  TableChunk reference_customer_;
  int64_t orders_rows_ = 0;
};

TEST_F(TpchJoinFixture, Q12MatchesReference) {
  TableChunk expected =
      ReferenceQ12(reference_lineitem_, reference_orders_);
  ASSERT_EQ(expected.num_rows(), 2u);  // MAIL and SHIP.
  TableChunk base = RunFleet(12);
  ASSERT_EQ(base.num_rows(), expected.num_rows());
  ASSERT_EQ(base.num_columns(), 3u);
  // High/low line counts are integral sums of 0/1 — exact in float64, so
  // the fleet must match the single-process reference exactly.
  for (size_t e = 0; e < expected.num_rows(); ++e) {
    int64_t mode = expected.column(0).i64()[e];
    bool found = false;
    for (size_t r = 0; r < base.num_rows(); ++r) {
      if (base.column(0).i64()[r] != mode) continue;
      found = true;
      EXPECT_EQ(base.column(1).f64()[r], expected.column(1).f64()[e])
          << "high_line_count for mode " << mode;
      EXPECT_EQ(base.column(2).f64()[r], expected.column(2).f64()[e])
          << "low_line_count for mode " << mode;
    }
    EXPECT_TRUE(found) << "mode " << mode << " missing";
  }
}

TEST_F(TpchJoinFixture, Q14MatchesReference) {
  Q14Result expected = ReferenceQ14(reference_lineitem_, reference_part_);
  ASSERT_GT(expected.total_revenue, 0);
  TableChunk base = RunFleet(14);
  ASSERT_EQ(base.num_rows(), 1u);
  ASSERT_EQ(base.num_columns(), 2u);
  double promo = base.column(0).f64()[0];
  double total = base.column(1).f64()[0];
  EXPECT_NEAR(promo, expected.promo_revenue,
              std::abs(expected.promo_revenue) * 1e-9 + 1e-9);
  EXPECT_NEAR(total, expected.total_revenue,
              std::abs(expected.total_revenue) * 1e-9 + 1e-9);
  // ~1/6 of parts are promotional.
  double pct = 100.0 * promo / total;
  EXPECT_GT(pct, 8.0);
  EXPECT_LT(pct, 25.0);
}

// ---------------------------------------------------------------------------
// Multi-join queries through the cost-based optimizer: Q3, Q18, Q19
// ---------------------------------------------------------------------------

/// Compares a fleet result against a reference chunk keyed by the int64
/// column `key_col` (unique per row). Int64 columns must match exactly,
/// float64 within a relative tolerance (the fleet's partial aggregates
/// add in a different order than the reference's single loop).
void ExpectMatchesByKey(const TableChunk& got, const TableChunk& expected,
                        size_t key_col) {
  ASSERT_EQ(got.num_rows(), expected.num_rows());
  ASSERT_EQ(got.num_columns(), expected.num_columns());
  for (size_t e = 0; e < expected.num_rows(); ++e) {
    int64_t key = expected.column(key_col).i64()[e];
    bool found = false;
    for (size_t r = 0; r < got.num_rows(); ++r) {
      if (got.column(key_col).i64()[r] != key) continue;
      found = true;
      for (size_t c = 0; c < got.num_columns(); ++c) {
        if (got.column(c).type() == engine::DataType::kInt64) {
          EXPECT_EQ(got.column(c).i64()[r], expected.column(c).i64()[e])
              << "col " << c << " key " << key;
        } else {
          double want = expected.column(c).f64()[e];
          EXPECT_NEAR(got.column(c).f64()[r], want,
                      std::abs(want) * 1e-9 + 1e-9)
              << "col " << c << " key " << key;
        }
      }
    }
    EXPECT_TRUE(found) << "key " << key << " missing";
  }
}

TEST_F(TpchJoinFixture, Q3MatchesReference) {
  TableChunk expected = ReferenceQ3(reference_lineitem_, reference_orders_,
                                    reference_customer_);
  ASSERT_GT(expected.num_rows(), 100u);
  auto base = RunFleetReport(3);
  ASSERT_EQ(base.result.num_columns(), 4u);
  // Both joins went through the optimizer and carry a costed decision.
  ASSERT_EQ(base.join_choices.size(), 2u);
  for (const auto& c : base.join_choices) {
    EXPECT_GT(c.partitioned_usd, 0.0);
  }
  EXPECT_FALSE(base.explain_text.empty());
  ExpectMatchesByKey(base.result, expected, 0);
}

TEST_F(TpchJoinFixture, Q3BothStrategiesMatchTheReference) {
  TableChunk expected = ReferenceQ3(reference_lineitem_, reference_orders_,
                                    reference_customer_);
  auto part = RunFleetReport(3, core::JoinStrategyOverride::kForcePartitioned);
  auto bcast = RunFleetReport(3, core::JoinStrategyOverride::kForceBroadcast);
  // Partitioned runs two-sided exchanges; broadcast runs none.
  auto rounds = [](const core::QueryReport& r) {
    return r.fleet_metrics.counter(obs::Metric::kExchangeRounds);
  };
  EXPECT_GT(rounds(part), 0);
  EXPECT_EQ(rounds(bcast), 0);
  for (const auto& c : part.join_choices) EXPECT_FALSE(c.broadcast);
  for (const auto& c : bcast.join_choices) EXPECT_TRUE(c.broadcast);
  // Same rows either way (aggregation order differs, so values are NEAR).
  ExpectMatchesByKey(part.result, expected, 0);
  ExpectMatchesByKey(bcast.result, expected, 0);
}

TEST_F(TpchJoinFixture, Q18MatchesReference) {
  TableChunk expected =
      ReferenceQ18(reference_lineitem_, reference_orders_,
                   reference_customer_, kQ18MinQuantity);
  // The HAVING threshold keeps a small, non-empty set of big orders.
  ASSERT_GT(expected.num_rows(), 0u);
  ASSERT_LT(expected.num_rows(), 500u);
  auto base = RunFleetReport(18);
  ASSERT_EQ(base.result.num_columns(), 5u);
  ExpectMatchesByKey(base.result, expected, 1);  // Key col: l_orderkey.
}

TEST_F(TpchJoinFixture, Q19MatchesReference) {
  double expected = ReferenceQ19(reference_lineitem_, reference_part_);
  ASSERT_GT(expected, 0.0);
  auto base = RunFleetReport(19);
  ASSERT_EQ(base.result.num_rows(), 1u);
  ASSERT_EQ(base.result.num_columns(), 1u);
  EXPECT_NEAR(base.result.column(0).f64()[0], expected,
              std::abs(expected) * 1e-9 + 1e-9);
}

}  // namespace
}  // namespace lambada::workload
