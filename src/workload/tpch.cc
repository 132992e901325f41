#include "workload/tpch.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/aggregate.h"
#include "format/writer.h"

#include <cstring>

namespace lambada::workload {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::SchemaPtr;
using engine::TableChunk;

int64_t TpchDate(int year, int month, int day) {
  // Days-from-civil (Howard Hinnant's algorithm), offset to 1992-01-01.
  auto days_from_civil = [](int y, int m, int d) -> int64_t {
    y -= m <= 2;
    int era = (y >= 0 ? y : y - 399) / 400;
    unsigned yoe = static_cast<unsigned>(y - era * 400);
    unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
    unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097LL + static_cast<int64_t>(doe) - 719468LL;
  };
  return days_from_civil(year, month, day) - days_from_civil(1992, 1, 1);
}

SchemaPtr LineitemSchema() {
  static const SchemaPtr kSchema = std::make_shared<Schema>(
      std::vector<Field>{{"l_orderkey", DataType::kInt64},
                         {"l_partkey", DataType::kInt64},
                         {"l_suppkey", DataType::kInt64},
                         {"l_linenumber", DataType::kInt64},
                         {"l_quantity", DataType::kFloat64},
                         {"l_extendedprice", DataType::kFloat64},
                         {"l_discount", DataType::kFloat64},
                         {"l_tax", DataType::kFloat64},
                         {"l_returnflag", DataType::kInt64},
                         {"l_linestatus", DataType::kInt64},
                         {"l_shipdate", DataType::kInt64},
                         {"l_commitdate", DataType::kInt64},
                         {"l_receiptdate", DataType::kInt64},
                         {"l_shipinstruct", DataType::kInt64},
                         {"l_shipmode", DataType::kInt64},
                         {"l_comment", DataType::kInt64}});
  return kSchema;
}

TableChunk GenerateLineitem(int64_t num_rows, uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(num_rows);
  std::vector<int64_t> orderkey(n), partkey(n), suppkey(n), linenumber(n);
  std::vector<double> quantity(n), extendedprice(n), discount(n), tax(n);
  std::vector<int64_t> returnflag(n), linestatus(n);
  std::vector<int64_t> shipdate(n), commitdate(n), receiptdate(n);
  std::vector<int64_t> shipinstruct(n), shipmode(n), comment(n);

  const int64_t order_min_date = TpchDate(1992, 1, 1);
  const int64_t order_max_date = TpchDate(1998, 8, 2);
  // TPC-H "current date" used for return flags and line status.
  const int64_t current_date = TpchDate(1995, 6, 17);

  int64_t next_orderkey = 1;
  size_t row = 0;
  while (row < n) {
    // Orders have 1-7 lineitems (TPC-H random(1,7)).
    int64_t lines = rng.UniformInt(1, 7);
    int64_t orderdate = rng.UniformInt(order_min_date, order_max_date);
    for (int64_t l = 1; l <= lines && row < n; ++l, ++row) {
      orderkey[row] = next_orderkey;
      partkey[row] = rng.UniformInt(1, 200000);
      suppkey[row] = rng.UniformInt(1, 10000);
      linenumber[row] = l;
      double qty = static_cast<double>(rng.UniformInt(1, 50));
      quantity[row] = qty;
      // Simplified retail price per part.
      double price_per_unit =
          900.0 + static_cast<double>(rng.UniformInt(1, 120000)) / 100.0;
      extendedprice[row] = qty * price_per_unit;
      discount[row] =
          static_cast<double>(rng.UniformInt(0, 10)) / 100.0;
      tax[row] = static_cast<double>(rng.UniformInt(0, 8)) / 100.0;
      int64_t ship = orderdate + rng.UniformInt(1, 121);
      shipdate[row] = ship;
      commitdate[row] = orderdate + rng.UniformInt(30, 90);
      receiptdate[row] = ship + rng.UniformInt(1, 30);
      if (receiptdate[row] <= current_date) {
        // Returned or accepted: R or A with equal probability.
        returnflag[row] = rng.UniformInt(0, 1) == 0 ? 0 : 2;  // A or R.
      } else {
        returnflag[row] = 1;  // N.
      }
      linestatus[row] = ship > current_date ? 1 : 0;  // O : F.
      shipinstruct[row] = rng.UniformInt(0, 3);
      shipmode[row] = rng.UniformInt(0, 6);
      comment[row] = static_cast<int64_t>(rng.Next() >> 16);
    }
    ++next_orderkey;
  }

  // Sort by l_shipdate (Section 5.1).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (shipdate[a] != shipdate[b]) return shipdate[a] < shipdate[b];
    return orderkey[a] < orderkey[b];
  });
  auto permute_i = [&](std::vector<int64_t>& v) {
    std::vector<int64_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = v[order[i]];
    v = std::move(out);
  };
  auto permute_f = [&](std::vector<double>& v) {
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = v[order[i]];
    v = std::move(out);
  };
  permute_i(orderkey);
  permute_i(partkey);
  permute_i(suppkey);
  permute_i(linenumber);
  permute_f(quantity);
  permute_f(extendedprice);
  permute_f(discount);
  permute_f(tax);
  permute_i(returnflag);
  permute_i(linestatus);
  permute_i(shipdate);
  permute_i(commitdate);
  permute_i(receiptdate);
  permute_i(shipinstruct);
  permute_i(shipmode);
  permute_i(comment);

  return TableChunk(
      LineitemSchema(),
      {Column::Int64(std::move(orderkey)), Column::Int64(std::move(partkey)),
       Column::Int64(std::move(suppkey)),
       Column::Int64(std::move(linenumber)),
       Column::Float64(std::move(quantity)),
       Column::Float64(std::move(extendedprice)),
       Column::Float64(std::move(discount)), Column::Float64(std::move(tax)),
       Column::Int64(std::move(returnflag)),
       Column::Int64(std::move(linestatus)),
       Column::Int64(std::move(shipdate)),
       Column::Int64(std::move(commitdate)),
       Column::Int64(std::move(receiptdate)),
       Column::Int64(std::move(shipinstruct)),
       Column::Int64(std::move(shipmode)), Column::Int64(std::move(comment))});
}

SchemaPtr OrdersSchema() {
  static const SchemaPtr kSchema = std::make_shared<Schema>(
      std::vector<Field>{{"o_orderkey", DataType::kInt64},
                         {"o_custkey", DataType::kInt64},
                         {"o_orderstatus", DataType::kInt64},
                         {"o_totalprice", DataType::kFloat64},
                         {"o_orderdate", DataType::kInt64},
                         {"o_orderpriority", DataType::kInt64},
                         {"o_clerk", DataType::kInt64},
                         {"o_shippriority", DataType::kInt64},
                         {"o_comment", DataType::kInt64}});
  return kSchema;
}

TableChunk GenerateOrders(int64_t num_orders, uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(num_orders);
  std::vector<int64_t> orderkey(n), custkey(n), orderstatus(n);
  std::vector<double> totalprice(n);
  std::vector<int64_t> orderdate(n), orderpriority(n), clerk(n),
      shippriority(n), comment(n);
  const int64_t order_min_date = TpchDate(1992, 1, 1);
  const int64_t order_max_date = TpchDate(1998, 8, 2);
  for (size_t i = 0; i < n; ++i) {
    orderkey[i] = static_cast<int64_t>(i) + 1;
    custkey[i] = rng.UniformInt(1, 150000);
    orderstatus[i] = rng.UniformInt(0, 2);
    totalprice[i] =
        1000.0 + static_cast<double>(rng.UniformInt(0, 45000000)) / 100.0;
    orderdate[i] = rng.UniformInt(order_min_date, order_max_date);
    orderpriority[i] = rng.UniformInt(0, 4);
    clerk[i] = rng.UniformInt(1, 1000);
    shippriority[i] = 0;
    comment[i] = static_cast<int64_t>(rng.Next() >> 16);
  }
  return TableChunk(
      OrdersSchema(),
      {Column::Int64(std::move(orderkey)), Column::Int64(std::move(custkey)),
       Column::Int64(std::move(orderstatus)),
       Column::Float64(std::move(totalprice)),
       Column::Int64(std::move(orderdate)),
       Column::Int64(std::move(orderpriority)),
       Column::Int64(std::move(clerk)),
       Column::Int64(std::move(shippriority)),
       Column::Int64(std::move(comment))});
}

SchemaPtr PartSchema() {
  static const SchemaPtr kSchema = std::make_shared<Schema>(
      std::vector<Field>{{"p_partkey", DataType::kInt64},
                         {"p_name", DataType::kInt64},
                         {"p_mfgr", DataType::kInt64},
                         {"p_brand", DataType::kInt64},
                         {"p_type", DataType::kInt64},
                         {"p_size", DataType::kInt64},
                         {"p_retailprice", DataType::kFloat64},
                         {"p_comment", DataType::kInt64}});
  return kSchema;
}

TableChunk GeneratePart(int64_t num_parts, uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(num_parts);
  std::vector<int64_t> partkey(n), name(n), mfgr(n), brand(n), type(n),
      size_col(n);
  std::vector<double> retailprice(n);
  std::vector<int64_t> comment(n);
  for (size_t i = 0; i < n; ++i) {
    partkey[i] = static_cast<int64_t>(i) + 1;
    name[i] = static_cast<int64_t>(rng.Next() >> 32);
    mfgr[i] = rng.UniformInt(0, 4);
    brand[i] = mfgr[i] * 5 + rng.UniformInt(0, 4);
    type[i] = rng.UniformInt(0, 149);
    size_col[i] = rng.UniformInt(1, 50);
    // TPC-H retail price formula modulo the string parts.
    retailprice[i] =
        90000.0 + static_cast<double>((partkey[i] / 10) % 20001) +
        100.0 * static_cast<double>(partkey[i] % 1000);
    comment[i] = static_cast<int64_t>(rng.Next() >> 16);
  }
  return TableChunk(
      PartSchema(),
      {Column::Int64(std::move(partkey)), Column::Int64(std::move(name)),
       Column::Int64(std::move(mfgr)), Column::Int64(std::move(brand)),
       Column::Int64(std::move(type)), Column::Int64(std::move(size_col)),
       Column::Float64(std::move(retailprice)),
       Column::Int64(std::move(comment))});
}

SchemaPtr CustomerSchema() {
  static const SchemaPtr kSchema = std::make_shared<Schema>(
      std::vector<Field>{{"c_custkey", DataType::kInt64},
                         {"c_name", DataType::kInt64},
                         {"c_nationkey", DataType::kInt64},
                         {"c_mktsegment", DataType::kInt64},
                         {"c_acctbal", DataType::kFloat64},
                         {"c_comment", DataType::kInt64}});
  return kSchema;
}

TableChunk GenerateCustomer(int64_t num_customers, uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(num_customers);
  std::vector<int64_t> custkey(n), name(n), nationkey(n), mktsegment(n),
      comment(n);
  std::vector<double> acctbal(n);
  for (size_t i = 0; i < n; ++i) {
    custkey[i] = static_cast<int64_t>(i) + 1;
    name[i] = static_cast<int64_t>(rng.Next() >> 32);
    nationkey[i] = rng.UniformInt(0, 24);
    mktsegment[i] = rng.UniformInt(0, 4);
    // TPC-H: -999.99 .. 9999.99.
    acctbal[i] =
        static_cast<double>(rng.UniformInt(-99999, 999999)) / 100.0;
    comment[i] = static_cast<int64_t>(rng.Next() >> 16);
  }
  return TableChunk(
      CustomerSchema(),
      {Column::Int64(std::move(custkey)), Column::Int64(std::move(name)),
       Column::Int64(std::move(nationkey)),
       Column::Int64(std::move(mktsegment)),
       Column::Float64(std::move(acctbal)),
       Column::Int64(std::move(comment))});
}

int64_t MaxOrderKey(const TableChunk& lineitem) {
  int idx = lineitem.schema()->FieldIndex("l_orderkey");
  LAMBADA_CHECK(idx >= 0);
  int64_t max_key = 0;
  for (int64_t k : lineitem.column(static_cast<size_t>(idx)).i64()) {
    if (k > max_key) max_key = k;
  }
  return max_key;
}

Result<DatasetInfo> LoadTableChunk(cloud::ObjectStore* s3,
                                   const std::string& bucket,
                                   const std::string& prefix,
                                   const TableChunk& all,
                                   const LoadOptions& options) {
  RETURN_NOT_OK(s3->CreateBucket(bucket));
  DatasetInfo info;
  info.rows = static_cast<int64_t>(all.num_rows());
  info.files = options.num_files;
  size_t n = all.num_rows();
  for (int f = 0; f < options.num_files; ++f) {
    size_t begin = n * static_cast<size_t>(f) /
                   static_cast<size_t>(options.num_files);
    size_t end = n * (static_cast<size_t>(f) + 1) /
                 static_cast<size_t>(options.num_files);
    TableChunk part = all.Slice(begin, end);
    format::WriterOptions wo;
    wo.codec = options.codec;
    wo.auto_encoding = options.auto_encoding;
    wo.row_group_rows = std::max<int64_t>(
        1, static_cast<int64_t>(part.num_rows() + options.row_groups_per_file -
                                1) /
               options.row_groups_per_file);
    ASSIGN_OR_RETURN(auto bytes, format::FileWriter::WriteTable(part, wo));
    char fname[64];
    std::snprintf(fname, sizeof(fname), "part-%04d.lpq", f);
    if (options.stats_index != nullptr) {
      // Re-parse the footer we just wrote and register its statistics.
      uint32_t footer_len;
      std::memcpy(&footer_len, bytes.data() + bytes.size() - 8, 4);
      auto meta = format::FileMetadata::Parse(
          bytes.data() + bytes.size() - 8 - footer_len, footer_len);
      RETURN_NOT_OK(meta);
      RETURN_NOT_OK(options.stats_index->RegisterFileDirect(
          options.dataset, prefix + fname, *meta));
    }
    double scale = 1.0;
    if (options.virtual_bytes_per_file > 0) {
      // The virtual size describes the PLAIN-encoded file of this shape
      // (the paper's "about 500 MB" Parquet files), so the scale is
      // anchored to a plain reference write. Value encodings then shrink
      // the modeled bytes below the target instead of silently inflating
      // the per-byte scale — without this, a better encoding would make
      // every remaining byte model proportionally more virtual bytes and
      // scaled benches could never show the encoding win.
      int64_t reference_size = static_cast<int64_t>(bytes.size());
      if (options.auto_encoding) {
        format::WriterOptions plain_wo = wo;
        plain_wo.auto_encoding = false;
        ASSIGN_OR_RETURN(auto plain_bytes,
                         format::FileWriter::WriteTable(part, plain_wo));
        reference_size = static_cast<int64_t>(plain_bytes.size());
      }
      scale = static_cast<double>(options.virtual_bytes_per_file) /
              static_cast<double>(reference_size);
    }
    info.real_bytes += static_cast<int64_t>(bytes.size());
    info.virtual_bytes +=
        static_cast<int64_t>(static_cast<double>(bytes.size()) * scale);
    RETURN_NOT_OK(s3->PutDirect(bucket, prefix + fname,
                                Buffer::FromVector(std::move(bytes)),
                                scale));
  }
  return info;
}

Result<DatasetInfo> LoadLineitem(cloud::ObjectStore* s3,
                                 const std::string& bucket,
                                 const std::string& prefix,
                                 const LoadOptions& options) {
  return LoadTableChunk(s3, bucket, prefix,
                        GenerateLineitem(options.num_rows, options.seed),
                        options);
}

Result<DatasetInfo> LoadOrders(cloud::ObjectStore* s3,
                               const std::string& bucket,
                               const std::string& prefix,
                               const LoadOptions& options) {
  return LoadTableChunk(s3, bucket, prefix,
                        GenerateOrders(options.num_rows, options.seed),
                        options);
}

Result<DatasetInfo> LoadPart(cloud::ObjectStore* s3,
                             const std::string& bucket,
                             const std::string& prefix,
                             const LoadOptions& options) {
  return LoadTableChunk(s3, bucket, prefix,
                        GeneratePart(options.num_rows, options.seed),
                        options);
}

Result<DatasetInfo> LoadCustomer(cloud::ObjectStore* s3,
                                 const std::string& bucket,
                                 const std::string& prefix,
                                 const LoadOptions& options) {
  return LoadTableChunk(s3, bucket, prefix,
                        GenerateCustomer(options.num_rows, options.seed),
                        options);
}

int64_t Q1CutoffDate() { return TpchDate(1998, 12, 1) - 90; }

core::Query TpchQ1(const std::string& pattern) {
  using engine::Avg;
  using engine::Col;
  using engine::Count;
  using engine::Lit;
  using engine::Sum;
  auto disc_price =
      Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"));
  auto charge = disc_price * (Lit(1.0) + Col("l_tax"));
  return core::Query::FromParquet(pattern)
      .Filter(Col("l_shipdate") <= Lit(Q1CutoffDate()))
      .Aggregate({"l_returnflag", "l_linestatus"},
                 {Sum(Col("l_quantity"), "sum_qty"),
                  Sum(Col("l_extendedprice"), "sum_base_price"),
                  Sum(disc_price, "sum_disc_price"), Sum(charge, "sum_charge"),
                  Avg(Col("l_quantity"), "avg_qty"),
                  Avg(Col("l_extendedprice"), "avg_price"),
                  Avg(Col("l_discount"), "avg_disc"),
                  Count("count_order")});
}

core::Query TpchQ6(const std::string& pattern) {
  using engine::Col;
  using engine::Lit;
  return core::Query::FromParquet(pattern)
      .Filter(Col("l_shipdate") >= Lit(TpchDate(1994, 1, 1)))
      .Filter(Col("l_shipdate") < Lit(TpchDate(1995, 1, 1)))
      .Filter(Col("l_discount") >= Lit(0.05) && Col("l_discount") <= Lit(0.07))
      .Filter(Col("l_quantity") < Lit(24.0))
      .Map(Col("l_extendedprice") * Col("l_discount"), "revenue_item")
      .ReduceSum("revenue_item");
}

core::Query TpchQ12(const std::string& lineitem_pattern,
                    const std::string& orders_pattern) {
  using engine::Col;
  using engine::Lit;
  using engine::Sum;
  // Build side: only the key and the priority survive the Select, so the
  // planner pushes a two-column projection into the ORDERS scan.
  auto orders =
      core::Query::FromParquet(orders_pattern)
          .Select({Col("o_orderkey"), Col("o_orderpriority")},
                  {"o_orderkey", "o_orderpriority"});
  // CASE WHEN priority IN ('1-URGENT','2-HIGH') -> the 0/1 comparison.
  auto high = Col("o_orderpriority") <= Lit(kHighPriorityMax);
  return core::Query::FromParquet(lineitem_pattern)
      .Filter(Col("l_shipmode") == Lit(kShipmodeMail) ||
              Col("l_shipmode") == Lit(kShipmodeShip))
      .Filter(Col("l_commitdate") < Col("l_receiptdate"))
      .Filter(Col("l_shipdate") < Col("l_commitdate"))
      .Filter(Col("l_receiptdate") >= Lit(TpchDate(1994, 1, 1)))
      .Filter(Col("l_receiptdate") < Lit(TpchDate(1995, 1, 1)))
      .JoinWith(orders, {"l_orderkey"}, {"o_orderkey"})
      .Aggregate({"l_shipmode"}, {Sum(high, "high_line_count"),
                                  Sum(Lit(1) - high, "low_line_count")});
}

core::Query TpchQ14(const std::string& lineitem_pattern,
                    const std::string& part_pattern) {
  using engine::Col;
  using engine::Lit;
  using engine::Sum;
  auto part = core::Query::FromParquet(part_pattern)
                  .Select({Col("p_partkey"), Col("p_type")},
                          {"p_partkey", "p_type"});
  auto disc_price =
      Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"));
  // CASE WHEN p_type LIKE 'PROMO%' -> the 0/1 comparison as a factor.
  auto promo = Col("p_type") < Lit(kPromoTypeCutoff);
  return core::Query::FromParquet(lineitem_pattern)
      .Filter(Col("l_shipdate") >= Lit(TpchDate(1995, 9, 1)))
      .Filter(Col("l_shipdate") < Lit(TpchDate(1995, 10, 1)))
      .JoinWith(part, {"l_partkey"}, {"p_partkey"})
      .Aggregate({}, {Sum(promo * disc_price, "promo_revenue"),
                      Sum(disc_price, "total_revenue")});
}

namespace {
// Q19's string predicates as numeric stand-ins. p_brand draws 0..24 and
// l_shipmode 0..6; "DELIVER IN PERSON" is l_shipinstruct == 0 and
// "AIR / AIR REG" is l_shipmode <= 1. Each clause pairs a brand with a
// size range and a quantity band, like the original's three disjuncts.
constexpr int64_t kQ19Brand1 = 3, kQ19Brand2 = 12, kQ19Brand3 = 21;
constexpr int64_t kQ19Size1 = 5, kQ19Size2 = 10, kQ19Size3 = 15;
constexpr double kQ19Qty1 = 1.0, kQ19Qty2 = 10.0, kQ19Qty3 = 20.0;
constexpr double kQ19QtySpan = 10.0;
constexpr int64_t kQ19ShipinstructInPerson = 0;
constexpr int64_t kQ19ShipmodeAirMax = 1;
}  // namespace

core::Query TpchQ3(const std::string& lineitem_pattern,
                   const std::string& orders_pattern,
                   const std::string& customer_pattern) {
  using engine::Col;
  using engine::Lit;
  using engine::Sum;
  const int64_t cutoff = TpchDate(1995, 3, 15);
  auto orders = core::Query::FromParquet(orders_pattern)
                    .Filter(Col("o_orderdate") < Lit(cutoff))
                    .Select({Col("o_orderkey"), Col("o_custkey"),
                             Col("o_orderdate"), Col("o_shippriority")},
                            {"o_orderkey", "o_custkey", "o_orderdate",
                             "o_shippriority"});
  auto customer =
      core::Query::FromParquet(customer_pattern)
          .Filter(Col("c_mktsegment") == Lit(kMktSegmentBuilding))
          .Select({Col("c_custkey")}, {"c_custkey"});
  return core::Query::FromParquet(lineitem_pattern)
      .Filter(Col("l_shipdate") > Lit(cutoff))
      .JoinWith(orders, {"l_orderkey"}, {"o_orderkey"})
      .JoinWith(customer, {"o_custkey"}, {"c_custkey"},
                engine::JoinType::kLeftSemi)
      .Map(Col("l_extendedprice") * (Lit(1.0) - Col("l_discount")),
           "revenue_item")
      .Aggregate({"l_orderkey", "o_orderdate", "o_shippriority"},
                 {Sum(Col("revenue_item"), "revenue")});
}

core::Query TpchQ18(const std::string& lineitem_pattern,
                    const std::string& orders_pattern,
                    const std::string& customer_pattern,
                    double min_quantity) {
  using engine::Col;
  using engine::Lit;
  using engine::Max;
  using engine::Sum;
  auto orders = core::Query::FromParquet(orders_pattern)
                    .Select({Col("o_orderkey"), Col("o_custkey"),
                             Col("o_orderdate"), Col("o_totalprice")},
                            {"o_orderkey", "o_custkey", "o_orderdate",
                             "o_totalprice"});
  auto customer = core::Query::FromParquet(customer_pattern)
                      .Select({Col("c_custkey")}, {"c_custkey"});
  return core::Query::FromParquet(lineitem_pattern)
      .JoinWith(orders, {"l_orderkey"}, {"o_orderkey"})
      .JoinWith(customer, {"o_custkey"}, {"c_custkey"},
                engine::JoinType::kLeftSemi)
      .Aggregate({"o_custkey", "l_orderkey", "o_orderdate"},
                 {Sum(Col("l_quantity"), "sum_qty"),
                  Max(Col("o_totalprice"), "o_totalprice")})
      .Filter(Col("sum_qty") > Lit(min_quantity));  // HAVING.
}

core::Query TpchQ19(const std::string& lineitem_pattern,
                    const std::string& part_pattern) {
  using engine::Col;
  using engine::Lit;
  auto part = core::Query::FromParquet(part_pattern)
                  .Select({Col("p_partkey"), Col("p_brand"), Col("p_size")},
                          {"p_partkey", "p_brand", "p_size"});
  auto clause = [](int64_t brand, int64_t max_size, double min_qty) {
    return Col("p_brand") == Lit(brand) && Col("p_size") >= Lit(int64_t{1}) &&
           Col("p_size") <= Lit(max_size) && Col("l_quantity") >= Lit(min_qty) &&
           Col("l_quantity") <= Lit(min_qty + kQ19QtySpan);
  };
  return core::Query::FromParquet(lineitem_pattern)
      .Filter(Col("l_shipinstruct") == Lit(kQ19ShipinstructInPerson))
      .Filter(Col("l_shipmode") <= Lit(kQ19ShipmodeAirMax))
      .JoinWith(part, {"l_partkey"}, {"p_partkey"})
      // The disjunction references both sides, so it must follow the join.
      .Filter(clause(kQ19Brand1, kQ19Size1, kQ19Qty1) ||
              clause(kQ19Brand2, kQ19Size2, kQ19Qty2) ||
              clause(kQ19Brand3, kQ19Size3, kQ19Qty3))
      .Map(Col("l_extendedprice") * (Lit(1.0) - Col("l_discount")),
           "revenue_item")
      .ReduceSum("revenue_item");
}

engine::TableChunk ReferenceQ1(const TableChunk& li) {
  engine::HashAggregator agg(
      {"l_returnflag", "l_linestatus"},
      {engine::Sum(engine::Col("l_quantity"), "sum_qty"),
       engine::Sum(engine::Col("l_extendedprice"), "sum_base_price"),
       engine::Sum(engine::Col("l_extendedprice") *
                       (engine::Lit(1.0) - engine::Col("l_discount")),
                   "sum_disc_price"),
       engine::Sum(engine::Col("l_extendedprice") *
                       (engine::Lit(1.0) - engine::Col("l_discount")) *
                       (engine::Lit(1.0) + engine::Col("l_tax")),
                   "sum_charge"),
       engine::Avg(engine::Col("l_quantity"), "avg_qty"),
       engine::Avg(engine::Col("l_extendedprice"), "avg_price"),
       engine::Avg(engine::Col("l_discount"), "avg_disc"),
       engine::Count("count_order")});
  auto mask = (engine::Col("l_shipdate") <= engine::Lit(Q1CutoffDate()))
                  ->Evaluate(li);
  LAMBADA_CHECK(mask.ok());
  std::vector<bool> keep(li.num_rows());
  for (size_t i = 0; i < keep.size(); ++i) keep[i] = mask->i64()[i] != 0;
  LAMBADA_CHECK_OK(agg.ConsumeInput(li.Filter(keep)));
  return agg.Finalize();
}

double ReferenceQ6(const TableChunk& li) {
  size_t ship = static_cast<size_t>(li.schema()->FieldIndex("l_shipdate"));
  size_t disc = static_cast<size_t>(li.schema()->FieldIndex("l_discount"));
  size_t qty = static_cast<size_t>(li.schema()->FieldIndex("l_quantity"));
  size_t price =
      static_cast<size_t>(li.schema()->FieldIndex("l_extendedprice"));
  const int64_t lo = TpchDate(1994, 1, 1), hi = TpchDate(1995, 1, 1);
  double revenue = 0;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    int64_t d = li.column(ship).i64()[i];
    double dc = li.column(disc).f64()[i];
    if (d >= lo && d < hi && dc >= 0.05 && dc <= 0.07 &&
        li.column(qty).f64()[i] < 24.0) {
      revenue += li.column(price).f64()[i] * dc;
    }
  }
  return revenue;
}

TableChunk ReferenceQ12(const TableChunk& li, const TableChunk& orders) {
  std::unordered_map<int64_t, int64_t> priority_of;
  {
    size_t ok = static_cast<size_t>(
        orders.schema()->FieldIndex("o_orderkey"));
    size_t op = static_cast<size_t>(
        orders.schema()->FieldIndex("o_orderpriority"));
    priority_of.reserve(orders.num_rows() * 2);
    for (size_t i = 0; i < orders.num_rows(); ++i) {
      priority_of[orders.column(ok).i64()[i]] = orders.column(op).i64()[i];
    }
  }
  size_t okey = static_cast<size_t>(li.schema()->FieldIndex("l_orderkey"));
  size_t mode = static_cast<size_t>(li.schema()->FieldIndex("l_shipmode"));
  size_t ship = static_cast<size_t>(li.schema()->FieldIndex("l_shipdate"));
  size_t commit =
      static_cast<size_t>(li.schema()->FieldIndex("l_commitdate"));
  size_t receipt =
      static_cast<size_t>(li.schema()->FieldIndex("l_receiptdate"));
  const int64_t lo = TpchDate(1994, 1, 1), hi = TpchDate(1995, 1, 1);
  std::map<int64_t, std::pair<int64_t, int64_t>> counts;  // mode -> (hi,lo)
  for (size_t i = 0; i < li.num_rows(); ++i) {
    int64_t m = li.column(mode).i64()[i];
    if (m != kShipmodeMail && m != kShipmodeShip) continue;
    int64_t r = li.column(receipt).i64()[i];
    if (li.column(commit).i64()[i] >= r) continue;
    if (li.column(ship).i64()[i] >= li.column(commit).i64()[i]) continue;
    if (r < lo || r >= hi) continue;
    auto it = priority_of.find(li.column(okey).i64()[i]);
    if (it == priority_of.end()) continue;  // Inner join drops it.
    auto& c = counts[m];
    if (it->second <= kHighPriorityMax) {
      ++c.first;
    } else {
      ++c.second;
    }
  }
  std::vector<int64_t> modes;
  std::vector<double> high, low;
  for (const auto& [m, c] : counts) {
    modes.push_back(m);
    high.push_back(static_cast<double>(c.first));
    low.push_back(static_cast<double>(c.second));
  }
  return TableChunk(
      std::make_shared<Schema>(
          std::vector<Field>{{"l_shipmode", DataType::kInt64},
                             {"high_line_count", DataType::kFloat64},
                             {"low_line_count", DataType::kFloat64}}),
      {Column::Int64(std::move(modes)), Column::Float64(std::move(high)),
       Column::Float64(std::move(low))});
}

Q14Result ReferenceQ14(const TableChunk& li, const TableChunk& part) {
  std::unordered_map<int64_t, int64_t> type_of;
  {
    size_t pk = static_cast<size_t>(part.schema()->FieldIndex("p_partkey"));
    size_t pt = static_cast<size_t>(part.schema()->FieldIndex("p_type"));
    type_of.reserve(part.num_rows() * 2);
    for (size_t i = 0; i < part.num_rows(); ++i) {
      type_of[part.column(pk).i64()[i]] = part.column(pt).i64()[i];
    }
  }
  size_t pkey = static_cast<size_t>(li.schema()->FieldIndex("l_partkey"));
  size_t ship = static_cast<size_t>(li.schema()->FieldIndex("l_shipdate"));
  size_t price =
      static_cast<size_t>(li.schema()->FieldIndex("l_extendedprice"));
  size_t disc = static_cast<size_t>(li.schema()->FieldIndex("l_discount"));
  const int64_t lo = TpchDate(1995, 9, 1), hi = TpchDate(1995, 10, 1);
  Q14Result out;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    int64_t d = li.column(ship).i64()[i];
    if (d < lo || d >= hi) continue;
    auto it = type_of.find(li.column(pkey).i64()[i]);
    if (it == type_of.end()) continue;
    double revenue =
        li.column(price).f64()[i] * (1.0 - li.column(disc).f64()[i]);
    if (it->second < kPromoTypeCutoff) out.promo_revenue += revenue;
    out.total_revenue += revenue;
  }
  return out;
}

namespace {

size_t ColIdx(const TableChunk& t, const char* name) {
  int idx = t.schema()->FieldIndex(name);
  LAMBADA_CHECK(idx >= 0);
  return static_cast<size_t>(idx);
}

}  // namespace

TableChunk ReferenceQ3(const TableChunk& li, const TableChunk& orders,
                       const TableChunk& customer) {
  const int64_t cutoff = TpchDate(1995, 3, 15);
  std::unordered_map<int64_t, bool> building;
  {
    size_t ck = ColIdx(customer, "c_custkey");
    size_t seg = ColIdx(customer, "c_mktsegment");
    building.reserve(customer.num_rows() * 2);
    for (size_t i = 0; i < customer.num_rows(); ++i) {
      if (customer.column(seg).i64()[i] == kMktSegmentBuilding) {
        building[customer.column(ck).i64()[i]] = true;
      }
    }
  }
  struct OrderInfo {
    int64_t orderdate;
    int64_t shippriority;
  };
  std::unordered_map<int64_t, OrderInfo> order_of;
  {
    size_t ok = ColIdx(orders, "o_orderkey");
    size_t ck = ColIdx(orders, "o_custkey");
    size_t od = ColIdx(orders, "o_orderdate");
    size_t sp = ColIdx(orders, "o_shippriority");
    order_of.reserve(orders.num_rows());
    for (size_t i = 0; i < orders.num_rows(); ++i) {
      if (orders.column(od).i64()[i] >= cutoff) continue;
      if (building.find(orders.column(ck).i64()[i]) == building.end()) {
        continue;  // Semi join drops it.
      }
      order_of[orders.column(ok).i64()[i]] = {
          orders.column(od).i64()[i], orders.column(sp).i64()[i]};
    }
  }
  size_t okey = ColIdx(li, "l_orderkey");
  size_t ship = ColIdx(li, "l_shipdate");
  size_t price = ColIdx(li, "l_extendedprice");
  size_t disc = ColIdx(li, "l_discount");
  std::map<int64_t, double> revenue;  // Ordered: ascending order key.
  for (size_t i = 0; i < li.num_rows(); ++i) {
    if (li.column(ship).i64()[i] <= cutoff) continue;
    auto it = order_of.find(li.column(okey).i64()[i]);
    if (it == order_of.end()) continue;
    revenue[it->first] +=
        li.column(price).f64()[i] * (1.0 - li.column(disc).f64()[i]);
  }
  std::vector<int64_t> keys, dates, prios;
  std::vector<double> revs;
  for (const auto& [k, r] : revenue) {
    const OrderInfo& o = order_of[k];
    keys.push_back(k);
    dates.push_back(o.orderdate);
    prios.push_back(o.shippriority);
    revs.push_back(r);
  }
  return TableChunk(
      std::make_shared<Schema>(
          std::vector<Field>{{"l_orderkey", DataType::kInt64},
                             {"o_orderdate", DataType::kInt64},
                             {"o_shippriority", DataType::kInt64},
                             {"revenue", DataType::kFloat64}}),
      {Column::Int64(std::move(keys)), Column::Int64(std::move(dates)),
       Column::Int64(std::move(prios)), Column::Float64(std::move(revs))});
}

TableChunk ReferenceQ18(const TableChunk& li, const TableChunk& orders,
                        const TableChunk& customer, double min_quantity) {
  std::unordered_map<int64_t, bool> has_customer;
  {
    size_t ck = ColIdx(customer, "c_custkey");
    has_customer.reserve(customer.num_rows() * 2);
    for (size_t i = 0; i < customer.num_rows(); ++i) {
      has_customer[customer.column(ck).i64()[i]] = true;
    }
  }
  struct OrderInfo {
    int64_t custkey;
    int64_t orderdate;
    double totalprice;
  };
  std::unordered_map<int64_t, OrderInfo> order_of;
  {
    size_t ok = ColIdx(orders, "o_orderkey");
    size_t ck = ColIdx(orders, "o_custkey");
    size_t od = ColIdx(orders, "o_orderdate");
    size_t tp = ColIdx(orders, "o_totalprice");
    order_of.reserve(orders.num_rows());
    for (size_t i = 0; i < orders.num_rows(); ++i) {
      int64_t custkey = orders.column(ck).i64()[i];
      if (has_customer.find(custkey) == has_customer.end()) continue;
      order_of[orders.column(ok).i64()[i]] = {
          custkey, orders.column(od).i64()[i], orders.column(tp).f64()[i]};
    }
  }
  size_t okey = ColIdx(li, "l_orderkey");
  size_t qty = ColIdx(li, "l_quantity");
  std::map<int64_t, double> sum_qty;  // Ordered: ascending order key.
  for (size_t i = 0; i < li.num_rows(); ++i) {
    auto it = order_of.find(li.column(okey).i64()[i]);
    if (it == order_of.end()) continue;
    sum_qty[it->first] += li.column(qty).f64()[i];
  }
  std::vector<int64_t> custs, keys, dates;
  std::vector<double> qtys, prices;
  for (const auto& [k, q] : sum_qty) {
    if (!(q > min_quantity)) continue;  // HAVING.
    const OrderInfo& o = order_of[k];
    custs.push_back(o.custkey);
    keys.push_back(k);
    dates.push_back(o.orderdate);
    qtys.push_back(q);
    prices.push_back(o.totalprice);
  }
  return TableChunk(
      std::make_shared<Schema>(
          std::vector<Field>{{"o_custkey", DataType::kInt64},
                             {"l_orderkey", DataType::kInt64},
                             {"o_orderdate", DataType::kInt64},
                             {"sum_qty", DataType::kFloat64},
                             {"o_totalprice", DataType::kFloat64}}),
      {Column::Int64(std::move(custs)), Column::Int64(std::move(keys)),
       Column::Int64(std::move(dates)), Column::Float64(std::move(qtys)),
       Column::Float64(std::move(prices))});
}

double ReferenceQ19(const TableChunk& li, const TableChunk& part) {
  struct PartInfo {
    int64_t brand;
    int64_t size;
  };
  std::unordered_map<int64_t, PartInfo> part_of;
  {
    size_t pk = ColIdx(part, "p_partkey");
    size_t pb = ColIdx(part, "p_brand");
    size_t ps = ColIdx(part, "p_size");
    part_of.reserve(part.num_rows());
    for (size_t i = 0; i < part.num_rows(); ++i) {
      part_of[part.column(pk).i64()[i]] = {part.column(pb).i64()[i],
                                           part.column(ps).i64()[i]};
    }
  }
  size_t pkey = ColIdx(li, "l_partkey");
  size_t qty = ColIdx(li, "l_quantity");
  size_t price = ColIdx(li, "l_extendedprice");
  size_t disc = ColIdx(li, "l_discount");
  size_t instr = ColIdx(li, "l_shipinstruct");
  size_t mode = ColIdx(li, "l_shipmode");
  auto clause = [](const PartInfo& p, double q, int64_t brand,
                   int64_t max_size, double min_qty) {
    return p.brand == brand && p.size >= 1 && p.size <= max_size &&
           q >= min_qty && q <= min_qty + kQ19QtySpan;
  };
  double revenue = 0;
  for (size_t i = 0; i < li.num_rows(); ++i) {
    if (li.column(instr).i64()[i] != kQ19ShipinstructInPerson) continue;
    if (li.column(mode).i64()[i] > kQ19ShipmodeAirMax) continue;
    auto it = part_of.find(li.column(pkey).i64()[i]);
    if (it == part_of.end()) continue;
    double q = li.column(qty).f64()[i];
    if (clause(it->second, q, kQ19Brand1, kQ19Size1, kQ19Qty1) ||
        clause(it->second, q, kQ19Brand2, kQ19Size2, kQ19Qty2) ||
        clause(it->second, q, kQ19Brand3, kQ19Size3, kQ19Qty3)) {
      revenue += li.column(price).f64()[i] *
                 (1.0 - li.column(disc).f64()[i]);
    }
  }
  return revenue;
}

}  // namespace lambada::workload
