#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "cloud/meta_cache.h"
#include "cloud/scan_share.h"
#include "core/driver.h"
#include "core/session_manager.h"
#include "engine/chunk_serde.h"
#include "workload/tpch.h"

namespace lambada {
namespace {

using core::Query;
using core::QueryReport;
using core::QueryService;
using core::RunOptions;
using core::ServingOptions;
using core::TenantOptions;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void LoadData(cloud::Cloud* cloud, int64_t rows = 8000, int files = 4) {
  workload::LoadOptions load;
  load.num_rows = rows;
  load.num_files = files;
  load.seed = 5;
  LAMBADA_CHECK_OK(workload::LoadLineitem(&cloud->s3(), "tpch", "li/", load));
  workload::LoadOptions oload = load;
  oload.num_rows = rows / 4;
  LAMBADA_CHECK_OK(workload::LoadOrders(&cloud->s3(), "tpch", "ord/", oload));
}

Query QueryByIndex(int i) {
  switch (i % 3) {
    case 0:
      return workload::TpchQ1("s3://tpch/li/*.lpq");
    case 1:
      return workload::TpchQ6("s3://tpch/li/*.lpq");
    default:
      return workload::TpchQ12("s3://tpch/li/*.lpq", "s3://tpch/ord/*.lpq");
  }
}

/// Submits every (tenant, query) either all at virtual time zero
/// (concurrent) or strictly one after the other (solo), runs the
/// simulation dry, and returns the per-submission outcomes in order.
std::vector<Result<QueryReport>> SubmitAll(
    cloud::Cloud* cloud, QueryService* svc,
    std::vector<std::pair<std::string, Query>> submissions,
    bool concurrent) {
  auto out = std::make_shared<std::vector<Result<QueryReport>>>(
      submissions.size(), Status::Internal("pending"));
  auto subs = std::make_shared<std::vector<std::pair<std::string, Query>>>(
      std::move(submissions));
  if (concurrent) {
    for (size_t i = 0; i < subs->size(); ++i) {
      sim::Spawn(
          [](QueryService* s,
             std::shared_ptr<std::vector<std::pair<std::string, Query>>> sub,
             std::shared_ptr<std::vector<Result<QueryReport>>> res,
             size_t idx) -> sim::Async<void> {
            // Named local, not a prvalue: GCC 12 bitwise-copies braced
            // prvalue aggregates when promoting them into coroutine frames.
            RunOptions ro;
            (*res)[idx] = co_await s->Submit((*sub)[idx].first,
                                             (*sub)[idx].second, ro);
          }(svc, subs, out, i));
    }
  } else {
    sim::Spawn(
        [](QueryService* s,
           std::shared_ptr<std::vector<std::pair<std::string, Query>>> sub,
           std::shared_ptr<std::vector<Result<QueryReport>>> res)
            -> sim::Async<void> {
          RunOptions ro;
          for (size_t i = 0; i < sub->size(); ++i) {
            (*res)[i] = co_await s->Submit((*sub)[i].first, (*sub)[i].second,
                                           ro);
          }
        }(svc, subs, out));
  }
  cloud->sim().Run();
  return std::move(*out);
}

std::vector<uint8_t> ResultBytes(const QueryReport& r) {
  return engine::SerializeChunk(r.result);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServingAdmissionTest, FifoOrderIsDeterministicInVirtualTime) {
  auto run = [] {
    cloud::Cloud cloud;
    LoadData(&cloud);
    ServingOptions sopts;
    sopts.max_concurrent = 1;  // Serialize everything through the queue.
    QueryService svc(&cloud, sopts);
    TenantOptions t;
    t.id = "acme";
    t.max_concurrent = 1;
    t.queue_deadline_s = 1e9;
    LAMBADA_CHECK_OK(svc.AddTenant(t));
    std::vector<std::pair<std::string, Query>> subs;
    for (int i = 0; i < 4; ++i) subs.emplace_back("acme", QueryByIndex(1));
    auto results = SubmitAll(&cloud, &svc, std::move(subs), true);
    for (const auto& r : results) EXPECT_TRUE(r.ok());
    return svc.admission_log();
  };

  auto log_a = run();
  // All four admitted, in ticket (submission) order.
  ASSERT_EQ(log_a.size(), 4u);
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].outcome, "admitted");
    EXPECT_EQ(log_a[i].ticket, i);
    if (i > 0) {
      EXPECT_GE(log_a[i].decided_s, log_a[i - 1].decided_s);
    }
  }
  // Identical deployment, identical workload: the admission schedule is a
  // deterministic function of virtual time, down to the decision stamps.
  auto log_b = run();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].tenant, log_b[i].tenant);
    EXPECT_EQ(log_a[i].ticket, log_b[i].ticket);
    EXPECT_EQ(log_a[i].outcome, log_b[i].outcome);
    EXPECT_DOUBLE_EQ(log_a[i].submitted_s, log_b[i].submitted_s);
    EXPECT_DOUBLE_EQ(log_a[i].decided_s, log_b[i].decided_s);
  }
}

TEST(ServingAdmissionTest, UnknownTenantRejectedByName) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  QueryService svc(&cloud, ServingOptions{});
  auto results = SubmitAll(&cloud, &svc, {{"nobody", QueryByIndex(1)}}, true);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[0].status().ToString().find("nobody"), std::string::npos);
}

TEST(ServingAdmissionTest, BudgetExhaustionRejectsWithTypedStatus) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  QueryService svc(&cloud, ServingOptions{});
  TenantOptions t;
  t.id = "shoestring";
  t.budget_usd = 1e-9;  // The first completed query exceeds this.
  LAMBADA_CHECK_OK(svc.AddTenant(t));

  auto first = SubmitAll(&cloud, &svc, {{"shoestring", QueryByIndex(1)}},
                         true);
  ASSERT_TRUE(first[0].ok()) << first[0].status().ToString();
  EXPECT_GT(svc.Usage("shoestring").spent_usd, 1e-9);

  auto second = SubmitAll(&cloud, &svc, {{"shoestring", QueryByIndex(1)}},
                          true);
  ASSERT_FALSE(second[0].ok());
  EXPECT_EQ(second[0].status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second[0].status().ToString().find("shoestring"),
            std::string::npos);
  EXPECT_NE(second[0].status().ToString().find("budget"), std::string::npos);
  EXPECT_EQ(svc.Usage("shoestring").rejected, 1);
  EXPECT_EQ(svc.metrics().counter(obs::Metric::kRejectedQueries), 1);
}

TEST(ServingAdmissionTest, QueueDepthLimitRejects) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  QueryService svc(&cloud, ServingOptions{});
  TenantOptions t;
  t.id = "bursty";
  t.max_concurrent = 1;
  t.max_queue_depth = 1;
  t.queue_deadline_s = 1e9;
  LAMBADA_CHECK_OK(svc.AddTenant(t));
  std::vector<std::pair<std::string, Query>> subs(
      3, {"bursty", QueryByIndex(1)});
  auto results = SubmitAll(&cloud, &svc, std::move(subs), true);
  int ok = 0, rejected = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++ok;
    } else {
      ++rejected;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(r.status().ToString().find("bursty"), std::string::npos);
    }
  }
  EXPECT_EQ(ok, 2);        // One running + one queued.
  EXPECT_EQ(rejected, 1);  // The third found the queue full.
}

TEST(ServingAdmissionTest, QueueDeadlineExpiresWithTenantName) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  QueryService svc(&cloud, ServingOptions{});
  TenantOptions t;
  t.id = "impatient";
  t.max_concurrent = 1;
  t.queue_deadline_s = 0.001;  // Far shorter than any query.
  LAMBADA_CHECK_OK(svc.AddTenant(t));
  std::vector<std::pair<std::string, Query>> subs(
      2, {"impatient", QueryByIndex(1)});
  auto results = SubmitAll(&cloud, &svc, std::move(subs), true);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(results[1].status().ToString().find("impatient"),
            std::string::npos);
  // The expired waiter must leave no phantom queue depth behind.
  EXPECT_EQ(svc.Usage("impatient").queued, 0);
  EXPECT_EQ(svc.running(), 0);
}

// ---------------------------------------------------------------------------
// Result correctness under concurrency
// ---------------------------------------------------------------------------

/// Runs `n` queries (cycling Q1/Q6/Q12) through a fresh deployment and
/// returns the serialized result bytes per submission.
std::vector<std::vector<uint8_t>> ServeBytes(int n, bool concurrent) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  ServingOptions sopts;
  sopts.max_concurrent = 64;
  QueryService svc(&cloud, sopts);
  TenantOptions t;
  t.id = "fleet";
  t.max_concurrent = 64;
  t.queue_deadline_s = 1e9;
  LAMBADA_CHECK_OK(svc.AddTenant(t));
  std::vector<std::pair<std::string, Query>> subs;
  for (int i = 0; i < n; ++i) subs.emplace_back("fleet", QueryByIndex(i));
  auto results = SubmitAll(&cloud, &svc, std::move(subs), concurrent);
  std::vector<std::vector<uint8_t>> bytes;
  for (const auto& r : results) {
    LAMBADA_CHECK(r.ok()) << r.status().ToString();
    bytes.push_back(ResultBytes(*r));
  }
  return bytes;
}

TEST(ServingConcurrencyTest, ConcurrentResultsByteIdenticalToSolo) {
  // 64 concurrent submissions against one deployment must produce, per
  // query, exactly the bytes a solo (sequential) deployment produces.
  const int kQueries = 64;
  const std::vector<std::vector<uint8_t>> solo =
      ServeBytes(kQueries, /*concurrent=*/false);
  ASSERT_EQ(solo.size(), static_cast<size_t>(kQueries));
  const auto concurrent = ServeBytes(kQueries, /*concurrent=*/true);
  ASSERT_EQ(concurrent.size(), solo.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(concurrent[i], solo[i]) << "query " << i << " diverged";
  }
}

/// Runs `query` through a solo Driver on a fresh deployment and returns
/// its serialized result.
std::vector<uint8_t> SoloDriverBytes(const Query& query) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());
  auto report = driver.RunToCompletion(query, RunOptions{});
  LAMBADA_CHECK(report.ok()) << report.status().ToString();
  return ResultBytes(*report);
}

TEST(ServingConcurrencyTest, SoloDriverBesideServiceRunsItsOwnPlan) {
  // A solo Driver and a QueryService on one Cloud share the plan, result
  // and exchange key spaces (lambada-system/plans/<qid>, ...), so their
  // query ids must not collide: a solo Q1 started together with a
  // service Q6 must each return the bytes of that query run alone.
  const Query q1 = workload::TpchQ1("s3://tpch/li/*.lpq");
  const Query q6 = workload::TpchQ6("s3://tpch/li/*.lpq");
  cloud::Cloud cloud;
  LoadData(&cloud);
  core::Driver driver(&cloud);
  LAMBADA_CHECK_OK(driver.Install());
  QueryService svc(&cloud, ServingOptions{});
  TenantOptions t;
  t.id = "acme";
  LAMBADA_CHECK_OK(svc.AddTenant(t));
  auto solo =
      std::make_shared<Result<QueryReport>>(Status::Internal("pending"));
  auto served =
      std::make_shared<Result<QueryReport>>(Status::Internal("pending"));
  const RunOptions ro;
  sim::Spawn([](core::Driver* d, const Query* q, const RunOptions* o,
                std::shared_ptr<Result<QueryReport>> out)
                 -> sim::Async<void> {
    *out = co_await d->Run(*q, *o);
  }(&driver, &q1, &ro, solo));
  sim::Spawn([](QueryService* s, const Query* q,
                std::shared_ptr<Result<QueryReport>> out)
                 -> sim::Async<void> {
    // Named locals, not prvalues (see SubmitAll).
    const std::string tenant = "acme";
    RunOptions opts;
    *out = co_await s->Submit(tenant, *q, opts);
  }(&svc, &q6, served));
  cloud.sim().Run();
  ASSERT_TRUE(solo->ok()) << solo->status().ToString();
  ASSERT_TRUE(served->ok()) << served->status().ToString();
  EXPECT_EQ(ResultBytes(**solo), SoloDriverBytes(q1));
  EXPECT_EQ(ResultBytes(**served), SoloDriverBytes(q6));
}

/// Runs six service queries one after the other (alternating Q1/Q6 over
/// 8 files, mitigation on) under `fault`. Returns their result bytes, and
/// in `late` the number of worker attempts that finished after their own
/// query had already been reported.
std::vector<std::vector<uint8_t>> ServeSequentialMitigated(
    const cloud::FaultPlan& fault, int* late) {
  cloud::CloudConfig cfg;
  cfg.fault = fault;
  cloud::Cloud cloud(cfg);
  LoadData(&cloud, 8000, 8);
  QueryService svc(&cloud, ServingOptions{});
  TenantOptions t;
  t.id = "acme";
  LAMBADA_CHECK_OK(svc.AddTenant(t));
  auto bytes = std::make_shared<std::vector<std::vector<uint8_t>>>();
  auto reported_at = std::make_shared<std::map<std::string, double>>();
  sim::Spawn([](cloud::Cloud* c, QueryService* s,
                std::shared_ptr<std::vector<std::vector<uint8_t>>> out,
                std::shared_ptr<std::map<std::string, double>> at)
                 -> sim::Async<void> {
    // Named locals, not prvalues (see SubmitAll).
    const std::string tenant = "acme";
    RunOptions ro;
    ro.mitigation.enabled = true;
    for (int i = 0; i < 6; ++i) {
      const Query q = QueryByIndex(i % 2);
      auto r = co_await s->Submit(tenant, q, ro);
      LAMBADA_CHECK(r.ok()) << r.status().ToString();
      out->push_back(ResultBytes(*r));
      (*at)[r->worker_results.front().query_id] = c->sim().Now();
    }
  }(&cloud, &svc, bytes, reported_at));
  cloud.sim().Run();
  *late = 0;
  for (const auto& m : cloud.faas().completed_metrics()) {
    if (m.handler_end > reported_at->at(m.query_id)) ++*late;
  }
  return std::move(*bytes);
}

TEST(ServingLedgerTest, AttemptsOutlivingTheirQueryChargeALiveLedger) {
  // Under mitigation a straggler's superseded attempt keeps running after
  // the first result of its worker won, so it can finish — and charge its
  // query's cost ledger — after Submit returned. The service keeps every
  // query's ledger for its own lifetime, so those late charges land in
  // live memory (the sanitizer builds check it), and the results stay
  // byte-identical to a fault-free run.
  cloud::FaultPlan stragglers;
  stragglers.enabled = true;
  stragglers.seed = 1;
  stragglers.straggler_rate = 0.3;
  stragglers.straggler_cpu_factor = 0.05;
  stragglers.straggler_net_factor = 0.05;
  int late = 0;
  const auto ref = ServeSequentialMitigated(cloud::FaultPlan{}, &late);
  EXPECT_EQ(late, 0);
  const auto got = ServeSequentialMitigated(stragglers, &late);
  EXPECT_EQ(got, ref);
  EXPECT_GE(late, 1);  // The scenario really outlives its queries.
}

// ---------------------------------------------------------------------------
// Metadata cache correctness
// ---------------------------------------------------------------------------

TEST(ServingCacheTest, WarmRunByteIdenticalAndCheaperThanCold) {
  cloud::Cloud cloud;
  LoadData(&cloud);
  QueryService svc(&cloud, ServingOptions{});
  TenantOptions t;
  t.id = "repeat";
  LAMBADA_CHECK_OK(svc.AddTenant(t));
  auto runs = SubmitAll(&cloud, &svc,
                        {{"repeat", QueryByIndex(0)},
                         {"repeat", QueryByIndex(0)}},
                        /*concurrent=*/false);
  ASSERT_TRUE(runs[0].ok()) << runs[0].status().ToString();
  ASSERT_TRUE(runs[1].ok()) << runs[1].status().ToString();
  const QueryReport& cold = *runs[0];
  const QueryReport& warm = *runs[1];
  EXPECT_EQ(ResultBytes(cold), ResultBytes(warm));
  // The warm run served its LIST and footers from the cache.
  EXPECT_GT(svc.metrics().counter(obs::Metric::kMetaCacheHits), 0);
  EXPECT_EQ(warm.cost.s3_list_requests, 0);
  EXPECT_LT(warm.cost.s3_list_requests, cold.cost.s3_list_requests);
  // And it is strictly cheaper end to end: the cold run paid the LIST,
  // the footer GETs, and the cache-fill writes.
  EXPECT_LT(warm.cost.TotalUsd(cloud.pricing()),
            cold.cost.TotalUsd(cloud.pricing()));
}

TEST(ServingCacheTest, RewriteBumpsVersionSoStaleIsNeverServed) {
  cloud::Cloud cloud;
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("b"));
  obs::MetricsRegistry metrics;
  cloud::MetadataCache cache(&cloud.ddb(), &cloud.s3(), "mc", &metrics);
  auto done = std::make_shared<bool>(false);
  sim::Spawn([](cloud::Cloud* c, cloud::MetadataCache* mc,
                std::shared_ptr<bool> done) -> sim::Async<void> {
    cloud::S3Client client(&c->s3(), c->driver_net());
    std::vector<uint8_t> v1(100, 0x11);
    LAMBADA_CHECK_OK(co_await client.Put("b", "k", Buffer::FromVector(v1)));
    const std::string key_v1 = mc->FooterKey("b", "k", 10);

    auto tail = co_await client.GetTail("b", "k", 10);
    LAMBADA_CHECK(tail.ok());
    LAMBADA_CHECK_OK(
        co_await mc->PutFooter(c->driver_net(), "b", "k", 10, *tail));
    auto hit = co_await mc->GetFooter(c->driver_net(), "b", "k", 10);
    LAMBADA_CHECK(hit.ok());

    // Rewrite the object: the write observer bumps the version, the cache
    // key changes, and the stale entry is simply never addressed again.
    std::vector<uint8_t> v2(100, 0x22);
    LAMBADA_CHECK_OK(co_await client.Put("b", "k", Buffer::FromVector(v2)));
    LAMBADA_CHECK(mc->FooterKey("b", "k", 10) != key_v1);
    auto stale = co_await mc->GetFooter(c->driver_net(), "b", "k", 10);
    LAMBADA_CHECK(!stale.ok());
    LAMBADA_CHECK(stale.status().code() == StatusCode::kNotFound);

    // Refill at the new version and verify the new bytes come back.
    auto tail2 = co_await client.GetTail("b", "k", 10);
    LAMBADA_CHECK(tail2.ok());
    LAMBADA_CHECK_OK(
        co_await mc->PutFooter(c->driver_net(), "b", "k", 10, *tail2));
    auto hit2 = co_await mc->GetFooter(c->driver_net(), "b", "k", 10);
    LAMBADA_CHECK(hit2.ok());
    LAMBADA_CHECK(hit2->data->size() == 10);
    LAMBADA_CHECK(hit2->data->data()[0] == 0x22);
    *done = true;
  }(&cloud, &cache, done));
  cloud.sim().Run();
  EXPECT_TRUE(*done);
}

TEST(ServingCacheTest, OversizeValuesSplitAcrossItemsAtTheBoundary) {
  cloud::Cloud cloud;
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("b"));
  obs::MetricsRegistry metrics;
  cloud::MetadataCache cache(&cloud.ddb(), &cloud.s3(), "mc", &metrics);
  auto done = std::make_shared<bool>(false);
  sim::Spawn([](cloud::Cloud* c, cloud::MetadataCache* mc,
                std::shared_ptr<bool> done) -> sim::Async<void> {
    cloud::S3Client client(&c->s3(), c->driver_net());
    // A ~1 MB footer: far above DynamoDB's 400 KB item limit, so the blob
    // must split across part items yet round-trip byte-identically.
    const int64_t kBig = 1000 * 1000;
    std::vector<uint8_t> big(static_cast<size_t>(kBig));
    for (size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<uint8_t>(i * 2654435761u >> 13);
    }
    LAMBADA_CHECK_OK(co_await client.Put("b", "big", Buffer::FromVector(big)));
    auto tail = co_await client.GetTail("b", "big", kBig);
    LAMBADA_CHECK(tail.ok());
    LAMBADA_CHECK_OK(
        co_await mc->PutFooter(c->driver_net(), "b", "big", kBig, *tail));
    const std::string head = mc->FooterKey("b", "big", kBig);
    LAMBADA_CHECK(c->ddb().GetDirect("mc", head).ok());
    LAMBADA_CHECK(c->ddb().GetDirect("mc", head + "#0").ok());
    LAMBADA_CHECK(c->ddb().GetDirect("mc", head + "#1").ok());
    auto round = co_await mc->GetFooter(c->driver_net(), "b", "big", kBig);
    LAMBADA_CHECK(round.ok());
    LAMBADA_CHECK(round->object_size == kBig);
    LAMBADA_CHECK(round->data->size() == static_cast<size_t>(kBig));
    LAMBADA_CHECK(std::equal(big.begin(), big.end(), round->data->data()));

    // Walk footer sizes across the split threshold: every size must
    // round-trip, and the single-item -> multi-item switch must be
    // monotonic (no size both inlines and splits).
    bool seen_split = false;
    bool seen_inline = false;
    for (int64_t n = 399960; n <= 400010; n += 5) {
      const std::string key = "edge" + std::to_string(n);
      std::vector<uint8_t> data(static_cast<size_t>(n),
                                static_cast<uint8_t>(n & 0xff));
      LAMBADA_CHECK_OK(
          co_await client.Put("b", key, Buffer::FromVector(data)));
      auto t = co_await client.GetTail("b", key, n);
      LAMBADA_CHECK(t.ok());
      LAMBADA_CHECK_OK(
          co_await mc->PutFooter(c->driver_net(), "b", key, n, *t));
      const bool split =
          c->ddb().GetDirect("mc", mc->FooterKey("b", key, n) + "#0").ok();
      if (!split) {
        seen_inline = true;
        LAMBADA_CHECK(!seen_split) << "split is not monotonic in size";
      } else {
        seen_split = true;
      }
      auto r = co_await mc->GetFooter(c->driver_net(), "b", key, n);
      LAMBADA_CHECK(r.ok());
      LAMBADA_CHECK(r->data->size() == static_cast<size_t>(n));
      LAMBADA_CHECK(
          std::equal(data.begin(), data.end(), r->data->data()));
    }
    LAMBADA_CHECK(seen_inline);
    LAMBADA_CHECK(seen_split);
    *done = true;
  }(&cloud, &cache, done));
  cloud.sim().Run();
  EXPECT_TRUE(*done);
}

// ---------------------------------------------------------------------------
// Shared scans
// ---------------------------------------------------------------------------

TEST(SharedScanTest, ConcurrentReadersShareOneFetchAndSplitTheBill) {
  cloud::Cloud cloud;
  LAMBADA_CHECK_OK(cloud.s3().CreateBucket("b"));
  obs::MetricsRegistry metrics;
  cloud::SharedScanBroker broker(&cloud.sim(), &metrics);
  auto ok = std::make_shared<int>(0);
  auto led_a = std::make_shared<cloud::CostLedger>();
  auto led_b = std::make_shared<cloud::CostLedger>();
  sim::Spawn([](cloud::Cloud* c, cloud::SharedScanBroker* br,
                std::shared_ptr<int> ok, std::shared_ptr<cloud::CostLedger> la,
                std::shared_ptr<cloud::CostLedger> lb) -> sim::Async<void> {
    {
      cloud::S3Client setup(&c->s3(), c->driver_net());
      std::vector<uint8_t> data(64 * 1024);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i);
      }
      LAMBADA_CHECK_OK(
          co_await setup.Put("b", "obj", Buffer::FromVector(data)));
    }
    const auto before = c->ledger().Snapshot();
    // Two "queries" read the same extent concurrently, each through a
    // client carrying its own attribution ledger.
    auto read = [](cloud::Cloud* c, cloud::SharedScanBroker* br,
                   cloud::CostLedger* led,
                   std::shared_ptr<int> ok) -> sim::Async<void> {
      cloud::NetContext net = c->driver_net();
      net.attribution = led;
      cloud::S3Client client(&c->s3(), net);
      auto r = co_await br->Get(&client, "b", "obj", 0, 64 * 1024);
      LAMBADA_CHECK(r.ok()) << r.status().ToString();
      LAMBADA_CHECK((*r)->size() == 64 * 1024);
      LAMBADA_CHECK((*r)->data()[5] == 5);
      ++*ok;
    };
    std::vector<sim::Async<void>> readers;
    readers.push_back(read(c, br, la.get(), ok));
    readers.push_back(read(c, br, lb.get(), ok));
    co_await sim::WhenAllVoid(&c->sim(), std::move(readers));
    // One physical GET hit the global ledger; the per-query ledgers each
    // carry half a request.
    const auto delta = c->ledger().Snapshot() - before;
    LAMBADA_CHECK(delta.s3_get_requests == 1) << delta.s3_get_requests;
    LAMBADA_CHECK(la->Snapshot().s3_shared_get_requests == 0.5);
    LAMBADA_CHECK(lb->Snapshot().s3_shared_get_requests == 0.5);
  }(&cloud, &broker, ok, led_a, led_b));
  cloud.sim().Run();
  EXPECT_EQ(*ok, 2);
  EXPECT_EQ(metrics.counter(obs::Metric::kSharedScanFetches), 1);
  EXPECT_EQ(metrics.counter(obs::Metric::kSharedScanAttaches), 1);
  EXPECT_EQ(metrics.counter(obs::Metric::kSharedScanRearms), 0);
}

}  // namespace
}  // namespace lambada
