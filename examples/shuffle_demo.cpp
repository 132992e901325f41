// Demonstrates the purely serverless exchange operator (Section 4.4): a
// query that repartitions data by key across workers through S3 — no
// always-on infrastructure — runs at one, two and three levels, and the
// Table 2 request model compares those with and without write combining.

#include <cstdio>

#include "cloud/cloud.h"
#include "common/units.h"
#include "core/driver.h"
#include "core/exchange.h"
#include "format/writer.h"

using namespace lambada;  // NOLINT

namespace {

/// Builds a 16-file dataset of (user, clicks) events where every file
/// contains every user: a grouped aggregate *requires* a shuffle if groups
/// must end up co-located.
void LoadEvents(cloud::Cloud& cloud) {
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("events"));
  auto schema = std::make_shared<engine::Schema>(std::vector<engine::Field>{
      {"user", engine::DataType::kInt64},
      {"clicks", engine::DataType::kInt64}});
  Rng rng(11);
  for (int f = 0; f < 16; ++f) {
    std::vector<int64_t> user, clicks;
    for (int i = 0; i < 5000; ++i) {
      user.push_back(rng.UniformInt(1, 2000));
      clicks.push_back(rng.UniformInt(1, 20));
    }
    engine::TableChunk chunk(schema,
                             {engine::Column::Int64(std::move(user)),
                              engine::Column::Int64(std::move(clicks))});
    auto file = format::FileWriter::WriteTable(chunk);
    LAMBADA_CHECK_OK(file);
    LAMBADA_CHECK_OK(cloud.s3().PutDirect(
        "events", "day/part-" + std::to_string(f) + ".lpq",
        Buffer::FromVector(*std::move(file))));
  }
}

}  // namespace

int main() {
  using engine::Col;

  std::printf("write-combined exchange on a 16-worker shuffle:\n\n");
  std::printf("%-6s %8s %8s %8s %10s %10s\n", "levels", "PUTs", "GETs",
              "LISTs", "latency", "cost");
  for (int levels : {1, 2, 3}) {
    cloud::Cloud cloud;
    core::Driver driver(&cloud);
    LAMBADA_CHECK_OK(driver.Install());
    LoadEvents(cloud);
    core::ExchangeSpec spec;
    spec.levels = levels;
    spec.num_buckets = 8;
    auto query =
        core::Query::FromParquet("s3://events/day/*.lpq")
            .Repartition({"user"}, spec)
            .Aggregate({"user"}, {engine::Sum(Col("clicks"), "total")});
    auto report = driver.RunToCompletion(query, core::RunOptions{});
    LAMBADA_CHECK(report.ok()) << report.status().ToString();
    std::printf("%-6d %8lld %8lld %8lld %10s %10s\n", levels,
                static_cast<long long>(report->cost.s3_put_requests),
                static_cast<long long>(report->cost.s3_get_requests),
                static_cast<long long>(report->cost.s3_list_requests),
                FormatSeconds(report->latency_s).c_str(),
                FormatUsd(report->CostUsd(cloud.pricing())).c_str());
    // Sanity: the grouped result is the same at every level count.
    LAMBADA_CHECK_EQ(report->result.num_rows(), 2000u);
  }
  std::printf(
      "\nWrite combining turns O(P) writes per worker into one; the\n"
      "multi-level grid turns O(P) reads per worker into O(P^(1/levels)).\n"
      "The request model of Table 2 (per-variant totals for P workers):\n\n");
  std::printf("%-8s %10s %10s %10s\n", "variant", "reads", "writes",
              "lists");
  for (int levels : {1, 2, 3}) {
    for (bool wc : {false, true}) {
      auto c = core::PredictExchangeRequests(4096, levels, wc);
      std::printf("%dl%-6s %10.0f %10.0f %10.0f\n", levels,
                  wc ? "-wc" : "", c.reads, c.writes, c.lists);
    }
  }
  return 0;
}
