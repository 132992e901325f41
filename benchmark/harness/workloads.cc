// The four benchmark workloads. Each one exists to load a different set
// of layers (benchmark/README.md has the full rationale):
//   scan  - cold single-table queries on 500 MB files: format, codec,
//           scan and FaaS cold start;
//   join  - warm partitioned and broadcast joins: S3 writes beside reads,
//           the exchange and the join kernel;
//   fleet - 1024-worker cold fleets under light chaos: the simulator
//           loop, the invocation tree and the driver's recovery;
//   serve - an open loop of tenants on one QueryService: admission, the
//           metadata cache and shared scans.
// Everything random derives from the run seed, so one (workload, seed,
// seconds) triple always runs the same queries on the same data.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/session_manager.h"
#include "engine/chunk_serde.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workload/tpch.h"

namespace lambada::benchmark {
namespace {

constexpr char kBucket[] = "tpch";
constexpr char kLineitem[] = "s3://tpch/li/*.lpq";
constexpr char kOrders[] = "s3://tpch/orders/*.lpq";
constexpr char kCustomer[] = "s3://tpch/customer/*.lpq";
constexpr int kMemoryMib = 1792;

/// An independent stream per purpose, derived from the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t purpose) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return rng.Next();
}

core::Query MakeQuery(const std::string& kind) {
  if (kind == "Q1") return workload::TpchQ1(kLineitem);
  if (kind == "Q6") return workload::TpchQ6(kLineitem);
  if (kind == "Q12") return workload::TpchQ12(kLineitem, kOrders);
  return workload::TpchQ3(kLineitem, kOrders, kCustomer);
}

/// Deals query kinds in blocks: every block of pattern.size() queries holds
/// exactly the pattern's mix, in a seeded order. A per-query coin flip
/// would let the mix itself — and with it every metric — drift by seed.
class Mix {
 public:
  Mix(std::vector<std::string> pattern, uint64_t seed)
      : pattern_(std::move(pattern)), rng_(seed) {}

  std::string Next() {
    if (pos_ == block_.size()) {
      block_ = pattern_;
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1],
                  block_[static_cast<size_t>(rng_.UniformInt(
                      0, static_cast<int64_t>(i) - 1))]);
      }
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  std::vector<std::string> pattern_;
  Rng rng_;
  std::vector<std::string> block_;
  size_t pos_ = 0;
};

/// Row order of a result, canonicalized by its int64 columns (the group
/// and join keys of every benchmark query), so results compare
/// independently of the engine's output order.
std::vector<size_t> CanonicalOrder(const std::vector<engine::Column>& cols,
                                   size_t rows) {
  std::vector<size_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (const engine::Column& c : cols) {
      if (c.type() != engine::DataType::kInt64) continue;
      if (c.i64()[a] != c.i64()[b]) return c.i64()[a] < c.i64()[b];
    }
    return false;
  });
  return order;
}

/// Compares a result with its reference: int64 exactly, float64 within the
/// tolerance workload_test uses (|e| * 1e-9 + 1e-9; the fleet adds partial
/// aggregates in a different order than the single-loop reference).
std::string CompareColumns(const std::vector<engine::Column>& got,
                           size_t got_rows,
                           const std::vector<engine::Column>& want) {
  const size_t want_rows = want.empty() ? 0 : want[0].size();
  if (got.size() != want.size() || got_rows != want_rows) {
    return "shape " + std::to_string(got_rows) + "x" +
           std::to_string(got.size()) + ", reference " +
           std::to_string(want_rows) + "x" + std::to_string(want.size());
  }
  const std::vector<size_t> go = CanonicalOrder(got, got_rows);
  const std::vector<size_t> wo = CanonicalOrder(want, want_rows);
  for (size_t c = 0; c < got.size(); ++c) {
    if (got[c].type() != want[c].type()) {
      return "column " + std::to_string(c) + " type differs";
    }
    for (size_t r = 0; r < got_rows; ++r) {
      if (got[c].type() == engine::DataType::kInt64) {
        if (got[c].i64()[go[r]] != want[c].i64()[wo[r]]) {
          return "column " + std::to_string(c) + " row " + std::to_string(r);
        }
      } else {
        const double e = want[c].f64()[wo[r]];
        if (!(std::abs(got[c].f64()[go[r]] - e) <= std::abs(e) * 1e-9 + 1e-9)) {
          return "column " + std::to_string(c) + " row " + std::to_string(r);
        }
      }
    }
  }
  return "";
}

/// Checks every result of a run against the reference of its query kind
/// and, where the engine merges partial results in worker order (under
/// mitigation and in serving mode), byte for byte against the first
/// result of that kind: repeated queries must then agree exactly, under
/// chaos and concurrency too. A solo driver without mitigation merges in
/// arrival order, so its repeats agree only within the tolerance.
class ResultChecker {
 public:
  explicit ResultChecker(bool exact_repeats) : exact_repeats_(exact_repeats) {}

  void SetReference(const std::string& kind,
                    std::vector<engine::Column> expected) {
    refs_[kind] = std::move(expected);
  }

  std::string Check(const std::string& kind, const engine::TableChunk& got,
                    const std::vector<uint8_t>& bytes) {
    auto ref = refs_.find(kind);
    if (ref == refs_.end()) return "no reference for " + kind;
    std::string err =
        CompareColumns(got.columns(), got.num_rows(), ref->second);
    if (!err.empty()) return kind + " differs from the reference: " + err;
    if (!exact_repeats_) return "";
    auto first = first_bytes_.emplace(kind, bytes);
    if (!first.second && first.first->second != bytes) {
      return kind + " result bytes differ from an earlier " + kind;
    }
    return "";
  }

 private:
  bool exact_repeats_;
  std::map<std::string, std::vector<engine::Column>> refs_;
  std::map<std::string, std::vector<uint8_t>> first_bytes_;
};

/// A generated relation and its layout on the simulated S3.
struct Table {
  std::string prefix;
  engine::TableChunk rows;
  workload::LoadOptions load;
};

workload::LoadOptions Layout(int files, int row_groups, uint64_t seed) {
  workload::LoadOptions load;
  load.num_files = files;
  load.row_groups_per_file = row_groups;
  load.seed = seed;
  return load;
}

/// Shared skeleton: a seeded deployment of TPC-H tables, a result checker,
/// and the bookkeeping every workload reports.
class TpchWorkload : public Workload {
 public:
  TpchWorkload(const Options& options, bool exact_repeats)
      : opts_(options), checker_(exact_repeats) {}

  /// References for every query the loaded tables support.
  void ComputeReferences() override {
    const engine::TableChunk& li = *Rows("li/");
    checker_.SetReference("Q1", workload::ReferenceQ1(li).columns());
    checker_.SetReference(
        "Q6", {engine::Column::Float64({workload::ReferenceQ6(li)})});
    const engine::TableChunk* orders = Rows("orders/");
    if (orders == nullptr) return;
    checker_.SetReference("Q12",
                          workload::ReferenceQ12(li, *orders).columns());
    if (const engine::TableChunk* customer = Rows("customer/")) {
      checker_.SetReference(
          "Q3", workload::ReferenceQ3(li, *orders, *customer).columns());
    }
  }

  SetupTimes Setup() override {
    // Tear the previous deployment down outside the timed steps.
    ResetDeployment();
    cloud_.reset();
    tables_.clear();

    SetupTimes t;
    double c0 = CpuSeconds();
    tables_ = Generate();
    t.generate_s = CpuSeconds() - c0;

    c0 = CpuSeconds();
    cloud_ = std::make_unique<cloud::Cloud>(Config());
    for (const Table& table : tables_) {
      auto info = workload::LoadTableChunk(&cloud_->s3(), kBucket,
                                           table.prefix, table.rows,
                                           table.load);
      LAMBADA_CHECK(info.ok()) << info.status().ToString();
      t.stored_bytes += static_cast<double>(info->virtual_bytes);
    }
    t.load_s = CpuSeconds() - c0;

    c0 = CpuSeconds();
    Install();
    t.install_s = CpuSeconds() - c0;
    return t;
  }

 protected:
  virtual std::vector<Table> Generate() const = 0;
  virtual cloud::CloudConfig Config() const {
    cloud::CloudConfig cfg;
    cfg.seed = StreamSeed(opts_.seed, 20);
    return cfg;
  }
  /// Installs the driver or service on cloud_.
  virtual void Install() = 0;
  /// Drops whatever Install created (it holds pointers into cloud_).
  virtual void ResetDeployment() = 0;

  /// The generated table under `prefix`, or null.
  const engine::TableChunk* Rows(const std::string& prefix) const {
    for (const Table& t : tables_) {
      if (t.prefix == prefix) return &t.rows;
    }
    return nullptr;
  }

  /// Records one finished query: outcome, result check, ledger.
  /// `t_start` is the virtual time its Driver::Run began.
  void Record(const std::string& kind, const Result<core::QueryReport>& r,
              double latency_s, double t_start, Pass* pass) {
    QueryOutcome o;
    o.kind = kind;
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", kind.c_str(),
                   r.status().ToString().c_str());
      pass->queries.push_back(std::move(o));
      return;
    }
    o.ok = true;
    o.latency_s = latency_s;
    o.cost_usd = r->CostUsd(cloud_->pricing());
    o.bytes = engine::SerializeChunk(r->result);
    const std::string err = checker_.Check(kind, r->result, o.bytes);
    if (!err.empty()) {
      pass->violations.push_back("query " +
                                 std::to_string(pass->queries.size()) + ": " +
                                 err);
    }
    pass->ledger.AddQuery(*r, t_start);
    if (r->trace != nullptr) {
      pass->ledger.AddTrace(*r->trace, /*worker_spans=*/!concurrent_);
    }
    CheckQuery(kind, *r, pass);
    pass->queries.push_back(std::move(o));
  }

  /// Per-query purpose checks (what the workload is for).
  virtual void CheckQuery(const std::string& /*kind*/,
                          const core::QueryReport& /*report*/,
                          Pass* /*pass*/) {}

  struct FaultCounts {
    int64_t requests = 0, crashes = 0, stragglers = 0, invokers = 0;
  };
  FaultCounts Faults() const {
    const cloud::FaultInjector& f = cloud_->fault();
    return {f.injected_request_faults(), f.crashes_armed(),
            f.stragglers_armed(), f.invoker_crashes_armed()};
  }
  /// Adds the fault injector's counters accrued since `before`.
  void AddFaults(const FaultCounts& before, Pass* pass) const {
    const FaultCounts now = Faults();
    Ledger& l = pass->ledger;
    l.Add("fault.injected_requests",
          static_cast<double>(now.requests - before.requests));
    l.Add("fault.crashes_armed",
          static_cast<double>(now.crashes - before.crashes));
    l.Add("fault.stragglers_armed",
          static_cast<double>(now.stragglers - before.stragglers));
    l.Add("fault.invoker_crashes_armed",
          static_cast<double>(now.invokers - before.invokers));
  }

  /// Outside `fleet` no fault may be injected; `mitigation_idle` also
  /// requires that nothing was retried, hedged or re-invoked.
  static void ExpectNoFaults(Pass* pass, bool mitigation_idle) {
    std::vector<const char*> zero = {
        "fault.injected_requests", "fault.crashes_armed",
        "fault.stragglers_armed", "fault.invoker_crashes_armed"};
    if (mitigation_idle) {
      zero.insert(zero.end(),
                  {"driver.reinvoked_workers", "driver.subtree_reinvocations",
                   "driver.duplicate_results", "s3.retries",
                   "s3.hedged_requests"});
    }
    const Ledger& l = pass->ledger;
    for (const char* name : zero) {
      if (l.Get(name) != 0) {
        pass->violations.push_back(std::string(name) + " is " +
                                   std::to_string(l.Get(name)) +
                                   " on a fault-free workload");
      }
    }
    if (mitigation_idle &&
        l.Get("driver.attempts") != l.Get("driver.workers")) {
      pass->violations.push_back("re-invoked workers on a fault-free workload");
    }
  }

  /// Query count of a pass: `per_second` queries per budgeted second, so
  /// the count depends on --seconds and nothing else.
  int QueryCount(double per_second) const {
    if (opts_.smoke) return 4;
    return std::max(
        1, static_cast<int>(std::lround(per_second * opts_.seconds)));
  }

  Options opts_;
  /// Queries overlap (serve). The deployment has one tracer slot, so
  /// concurrent traced queries scatter their workers' spans across each
  /// other's traces; only the driver's own phase spans stay attributable.
  bool concurrent_ = false;
  std::unique_ptr<cloud::Cloud> cloud_;
  std::vector<Table> tables_;
  ResultChecker checker_;
};

/// Closed loop: one analyst, each query submitted when the previous one
/// finished. The harness spawns Driver::Run and steps the simulator itself.
class ClosedLoopWorkload : public TpchWorkload {
 public:
  using TpchWorkload::TpchWorkload;

  Pass Run(bool trace) override {
    Pass pass;
    const FaultCounts faults = Faults();
    Mix mix(MixPattern(), StreamSeed(opts_.seed, 1));
    const int n = NumQueries();
    const double c0 = CpuSeconds();
    for (int i = 0; i < n; ++i) RunQuery(mix.Next(), trace, &pass);
    pass.cpu_s = CpuSeconds() - c0;
    AddFaults(faults, &pass);
    CheckPass(&pass);
    return pass;
  }

 protected:
  void RunQuery(const std::string& kind, bool trace, Pass* pass) {
    const core::Query query = MakeQuery(kind);
    core::RunOptions ro = RunOptionsFor(kind);
    ro.trace.enabled = trace;
    if (cold_) driver_->ResetWarm(kMemoryMib);
    auto result = std::make_shared<Result<core::QueryReport>>(
        Status::Internal("query did not finish"));
    const double t_start = cloud_->sim().Now();
    sim::Spawn([](core::Driver* d, const core::Query* q,
                  const core::RunOptions* o,
                  std::shared_ptr<Result<core::QueryReport>> out)
                   -> sim::Async<void> {
      *out = co_await d->Run(*q, *o);
    }(driver_.get(), &query, &ro, result));
    Drain(&cloud_->sim(), &pass->sim);
    Record(kind, *result, result->ok() ? (*result)->latency_s : 0.0, t_start,
           pass);
    // Garbage of finished queries: per-invocation timing records and
    // exchange objects (a lifecycle rule would expire them).
    cloud_->faas().ClearMetrics();
    for (int b = 0; b < driver_->options().exchange_buckets; ++b) {
      cloud_->s3().ClearBucket(driver_->options().exchange_bucket_prefix +
                               "-" + std::to_string(b));
    }
  }

  virtual int NumQueries() const = 0;
  /// One block of the query mix (see Mix).
  virtual std::vector<std::string> MixPattern() const = 0;
  virtual core::RunOptions RunOptionsFor(const std::string& /*kind*/) const {
    core::RunOptions ro;
    ro.memory_mib = kMemoryMib;
    ro.files_per_worker = 1;
    return ro;
  }
  virtual void CheckPass(Pass* pass) {
    ExpectNoFaults(pass, /*mitigation_idle=*/true);
  }

  void Install() override {
    driver_ = std::make_unique<core::Driver>(cloud_.get());
    LAMBADA_CHECK_OK(driver_->Install());
    LAMBADA_CHECK_OK(driver_->EnsureFunction(kMemoryMib));
  }
  void ResetDeployment() override { driver_.reset(); }

  /// Every query starts a cold fleet (ResetWarm before each).
  bool cold_ = true;
  std::unique_ptr<core::Driver> driver_;
};

// ---------------------------------------------------------------------------
// scan: the paper's headline case — infrequent queries on cold data.
// ---------------------------------------------------------------------------

class ScanWorkload : public ClosedLoopWorkload {
 public:
  explicit ScanWorkload(const Options& options)
      : ClosedLoopWorkload(options, /*exact_repeats=*/false) {}

 protected:
  static constexpr int kFiles = 64;
  static constexpr int kRowGroups = 8;
  static constexpr int kRowsPerGroup = 250;

  std::vector<Table> Generate() const override {
    Table li;
    li.prefix = "li/";
    li.load = Layout(kFiles, kRowGroups, StreamSeed(opts_.seed, 10));
    // The paper's files are ~500 MB; virtual scaling keeps the modeled
    // bytes, request pattern and compute at that size while the host
    // decodes only kRowsPerGroup rows per row group.
    li.load.virtual_bytes_per_file = 500 * kMB;
    li.rows = workload::GenerateLineitem(
        int64_t{kFiles} * kRowGroups * kRowsPerGroup, li.load.seed);
    return {std::move(li)};
  }

  int NumQueries() const override { return QueryCount(15); }

  /// 3:1 Q1:Q6 keeps the median inside Q1's latency mode; at 1:1 it sits
  /// between the two modes and jumps across seeds.
  std::vector<std::string> MixPattern() const override {
    return {"Q1", "Q1", "Q1", "Q6"};
  }

  /// Q6 is here for min/max pruning on the sorted l_shipdate. (Sorted
  /// dates encode as runs, not dictionaries, so the dictionary filter does
  /// its work in `join`, on Q12's l_shipmode.)
  void CheckQuery(const std::string& kind, const core::QueryReport& r,
                  Pass* pass) override {
    if (kind != "Q6") return;
    using obs::Metric;
    const auto& f = r.fleet_metrics;
    const auto pruned =
        static_cast<double>(f.counter(Metric::kRowGroupsPruned));
    const auto total = static_cast<double>(f.counter(Metric::kRowGroupsTotal));
    if (!(pruned > 0.5 * total)) {
      pass->violations.push_back("Q6 pruned " + std::to_string(pruned) +
                                 " of " + std::to_string(total) +
                                 " row groups (want > 50%)");
    }
  }
};

// ---------------------------------------------------------------------------
// join: S3 writes beside reads — the partitioned exchange and broadcast.
// ---------------------------------------------------------------------------

class JoinWorkload : public ClosedLoopWorkload {
 public:
  explicit JoinWorkload(const Options& options)
      : ClosedLoopWorkload(options, /*exact_repeats=*/true) {
    cold_ = false;  // Warm after the first query.
  }

 protected:
  static constexpr int64_t kLineitemRows = 24000;
  static constexpr int64_t kCustomers = 6000;

  std::vector<Table> Generate() const override {
    Table li;
    li.prefix = "li/";
    li.load = Layout(16, 8, StreamSeed(opts_.seed, 10));
    li.rows = workload::GenerateLineitem(kLineitemRows, li.load.seed);
    Table orders;
    orders.prefix = "orders/";
    orders.load = Layout(8, 4, StreamSeed(opts_.seed, 11));
    orders.rows = workload::GenerateOrders(workload::MaxOrderKey(li.rows),
                                           orders.load.seed);
    // Fewer customers than o_custkey spans: Q3's semi-join then keeps the
    // orders of the first kCustomers customers only, which the reference
    // computes the same way.
    Table customer;
    customer.prefix = "customer/";
    customer.load = Layout(4, 4, StreamSeed(opts_.seed, 12));
    customer.rows = workload::GenerateCustomer(kCustomers, customer.load.seed);
    std::vector<Table> out;
    out.push_back(std::move(li));
    out.push_back(std::move(orders));
    out.push_back(std::move(customer));
    return out;
  }

  int NumQueries() const override { return QueryCount(90); }

  /// 3:1 Q12 (forced partitioned) : Q3 (the optimizer's choice). The
  /// median latency and the median bill then sit inside Q12's modes, not
  /// between the two kinds' (at 1:1 the median bill jumped by 11 % from
  /// seed to seed). About a quarter of the Q12s meet a Pareto-delayed PUT,
  /// so p90 lies inside that tail: the noisiest end-to-end number here.
  std::vector<std::string> MixPattern() const override {
    return {"Q12", "Q12", "Q12", "Q3"};
  }

  /// Mitigation on, with its default knobs: the Pareto PUT tail has no
  /// upper end, and a partition PUT stuck for longer than the exchange's
  /// 600 s wait would fail the query (about once in eight runs without
  /// it). The driver re-invokes stalled workers instead, which touches
  /// well under 1 % of the worker invocations.
  core::RunOptions RunOptionsFor(const std::string& kind) const override {
    core::RunOptions ro = ClosedLoopWorkload::RunOptionsFor(kind);
    ro.mitigation.enabled = true;
    if (kind == "Q12") {
      ro.join_strategy = core::JoinStrategyOverride::kForcePartitioned;
    }
    return ro;
  }

  void CheckPass(Pass* pass) override {
    ExpectNoFaults(pass, /*mitigation_idle=*/false);
  }

  void CheckQuery(const std::string& kind, const core::QueryReport& r,
                  Pass* pass) override {
    if (kind == "Q12" &&
        r.fleet_metrics.counter(obs::Metric::kExchangePutRequests) <= 0) {
      pass->violations.push_back("Q12 wrote no exchange partitions");
    }
    if (kind == "Q3") {
      bool broadcast = false;
      for (const core::JoinChoice& j : r.join_choices) {
        broadcast = broadcast || j.broadcast;
      }
      if (!broadcast) {
        pass->violations.push_back("Q3 chose no broadcast join");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// fleet: Figure 5's mechanism — cold 1024-worker fleets under light chaos.
// ---------------------------------------------------------------------------

class FleetWorkload : public ClosedLoopWorkload {
 public:
  explicit FleetWorkload(const Options& options)
      : ClosedLoopWorkload(options, /*exact_repeats=*/true) {}

 protected:
  static constexpr int kWorkers = 1024;
  static constexpr int kRowsPerFile = 4;

  std::vector<Table> Generate() const override {
    Table li;
    li.prefix = "li/";
    li.load = Layout(kWorkers, 1, StreamSeed(opts_.seed, 10));
    li.rows = workload::GenerateLineitem(int64_t{kWorkers} * kRowsPerFile,
                                         li.load.seed);
    return {std::move(li)};
  }

  cloud::CloudConfig Config() const override {
    cloud::CloudConfig cfg = ClosedLoopWorkload::Config();
    cfg.concurrency_limit = 24000;
    // A 1024-file dataset spans many S3 prefixes; model the bucket at
    // ~10x the single-prefix request rates (as failure_test's 10k fleet
    // does) so the fleet meets chaos, not a SlowDown storm.
    cfg.s3.read_rate_per_bucket = 55000.0;
    cfg.s3.write_rate_per_bucket = 35000.0;
    cfg.s3.rate_burst = 2000.0;
    cloud::FaultPlan& f = cfg.fault;
    f.enabled = true;
    f.seed = StreamSeed(opts_.seed, 21);
    f.worker_crash_rate = 8e-5;
    f.straggler_rate = 5e-5;
    f.s3_get_error_rate = 5e-4;
    f.invoker_crash_rate = 0.002;
    return cfg;
  }

  int NumQueries() const override { return QueryCount(12); }

  std::vector<std::string> MixPattern() const override {
    return {"Q1", "Q6"};
  }

  core::RunOptions RunOptionsFor(const std::string& kind) const override {
    core::RunOptions ro = ClosedLoopWorkload::RunOptionsFor(kind);
    ro.mitigation.enabled = true;
    ro.mitigation.subtree_recovery = true;
    ro.mitigation.fleet_aware = true;
    ro.mitigation.max_attempts = 6;
    ro.hedge_gets = true;
    return ro;
  }

  void CheckPass(Pass* pass) override {
    const Ledger& l = pass->ledger;
    const double armed = l.Get("fault.injected_requests") +
                         l.Get("fault.crashes_armed") +
                         l.Get("fault.stragglers_armed") +
                         l.Get("fault.invoker_crashes_armed");
    if (armed <= 0) pass->violations.push_back("fleet armed no faults");
  }
};

// ---------------------------------------------------------------------------
// serve: an open loop of independent tenants on one QueryService.
// ---------------------------------------------------------------------------

class ServeWorkload : public TpchWorkload {
 public:
  explicit ServeWorkload(const Options& options)
      : TpchWorkload(options, /*exact_repeats=*/true) {
    concurrent_ = true;
  }

  Pass Run(bool trace) override {
    Pass pass;
    const FaultCounts faults = Faults();
    const double c0 = CpuSeconds();
    OpenLoop(kMeasuredRate, QueryCount(36), trace, &pass);
    pass.cpu_s = CpuSeconds() - c0;
    AddFaults(faults, &pass);
    if (pass.ledger.Get("meta_cache.hits") <= 0) {
      pass.violations.push_back("serve: no metadata-cache hits");
    }
    if (pass.ledger.Get("shared_scan.attaches") <= 0) {
      pass.violations.push_back("serve: no shared-scan attaches");
    }
    ExpectNoFaults(&pass, /*mitigation_idle=*/true);
    if (!trace) return pass;

    // The rate sweep behind serving.max_qps: every rate on a fresh
    // deployment, arrivals from the same seeded stream. The first
    // arrivals only warm the deployment up (cold containers, empty
    // metadata cache) and are not timed.
    const std::vector<double> rates =
        opts_.smoke ? std::vector<double>{8, 16}
                    : std::vector<double>{4, 8, 16, 32, 64};
    const int warmup = opts_.smoke ? 0 : kSweepWarmup;
    for (double rate : rates) {
      Setup();
      Pass point;
      const std::vector<Slot> slots = OpenLoop(
          rate, warmup + (opts_.smoke ? 4 : kSweepArrivals), false, &point);
      std::vector<double> lat;
      int64_t failures = 0;
      for (size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].ok) {
          ++failures;
        } else if (i >= static_cast<size_t>(warmup)) {
          lat.push_back(slots[i].latency_s);
        }
      }
      pass.sweep.push_back({rate, Percentile(lat, 0.9),
                            static_cast<int64_t>(slots.size()), failures});
      for (std::string& v : point.violations) {
        pass.violations.push_back(std::move(v));
      }
    }
    return pass;
  }

 protected:
  static constexpr double kMeasuredRate = 8.0;
  static constexpr int kSweepWarmup = 30;
  static constexpr int kSweepArrivals = 100;
  static constexpr int kTenants = 4;

  std::vector<Table> Generate() const override {
    Table li;
    li.prefix = "li/";
    li.load = Layout(16, 4, StreamSeed(opts_.seed, 10));
    li.rows = workload::GenerateLineitem(64000, li.load.seed);
    Table orders;
    orders.prefix = "orders/";
    orders.load = Layout(4, 4, StreamSeed(opts_.seed, 11));
    orders.rows = workload::GenerateOrders(workload::MaxOrderKey(li.rows),
                                           orders.load.seed);
    std::vector<Table> out;
    out.push_back(std::move(li));
    out.push_back(std::move(orders));
    return out;
  }

  void Install() override {
    core::ServingOptions sopts;
    sopts.max_concurrent = 16;
    service_ = std::make_unique<core::QueryService>(cloud_.get(), sopts);
    for (int t = 0; t < kTenants; ++t) {
      core::TenantOptions tenant;
      tenant.id = "t" + std::to_string(t);
      tenant.max_concurrent = 4;
      tenant.queue_deadline_s = 60.0;
      tenant.max_queue_depth = 256;
      LAMBADA_CHECK_OK(service_->AddTenant(std::move(tenant)));
    }
    LAMBADA_CHECK_OK(service_->driver().Install());
    LAMBADA_CHECK_OK(service_->driver().EnsureFunction(kMemoryMib));
  }
  void ResetDeployment() override { service_.reset(); }

 private:
  /// One arrival of the open loop.
  struct Slot {
    std::string kind;
    double due = 0;
    bool ok = false;
    double latency_s = 0;
  };

  /// Submits one arrival and records it as soon as it finishes, so only
  /// the queries in flight hold their reports.
  sim::Async<void> SubmitOne(Slot* slot, std::string tenant, bool trace,
                             Pass* pass) {
    // Named locals: GCC 12 mis-copies braced aggregates held across a
    // co_await (see src/core/session_manager.h).
    core::Query query = MakeQuery(slot->kind);
    core::RunOptions ro;
    ro.memory_mib = kMemoryMib;
    ro.files_per_worker = 1;
    ro.trace.enabled = trace;
    Result<core::QueryReport> report =
        co_await service_->Submit(tenant, query, ro);
    const double done = cloud_->sim().Now();
    slot->ok = report.ok();
    slot->latency_s = done - slot->due;
    Record(slot->kind, report, slot->latency_s,
           done - (report.ok() ? report->latency_s : 0.0), pass);
    // Its workers may still be closing spans in this trace.
    if (report.ok() && report->trace != nullptr) {
      live_traces_.push_back(report->trace);
    }
  }

  sim::Async<void> Generator(std::vector<Slot>* slots, bool trace,
                             Pass* pass) {
    sim::Simulator* sim = &cloud_->sim();
    for (size_t i = 0; i < slots->size(); ++i) {
      Slot* slot = &(*slots)[i];
      co_await sim::Sleep(sim, slot->due - sim->Now());
      std::string tenant = "t" + std::to_string(i % kTenants);
      sim::Spawn(SubmitOne(slot, tenant, trace, pass));
    }
  }

  /// Poisson arrivals at `rate` q/s, tenants round robin, Q1:Q6:Q12 =
  /// 1:1:4 (Q12 is the slowest kind; with it at two thirds of the mix the
  /// median sits inside its latency mode instead of between modes).
  /// Latency runs from each query's due time, so admission waits count;
  /// the generator sleeps in virtual time and is never late. Expects a
  /// fresh deployment: the service's counters are read as totals.
  /// Returns the arrivals in arrival order (`pass` records them in
  /// completion order).
  std::vector<Slot> OpenLoop(double rate, int arrivals, bool trace,
                             Pass* pass) {
    Rng gaps(StreamSeed(opts_.seed, 2));
    Mix kinds({"Q1", "Q6", "Q12", "Q12", "Q12", "Q12"},
              StreamSeed(opts_.seed, 3));
    std::vector<Slot> slots(static_cast<size_t>(arrivals));
    double t = cloud_->sim().Now();
    for (Slot& s : slots) {
      t += gaps.Exponential(1.0 / rate);
      s.due = t;
      s.kind = kinds.Next();
    }
    sim::Spawn(Generator(&slots, trace, pass));
    Drain(&cloud_->sim(), &pass->sim);
    live_traces_.clear();

    const obs::MetricsRegistry& m = service_->metrics();
    using obs::Metric;
    Ledger& l = pass->ledger;
    for (Metric id : {Metric::kMetaCacheHits, Metric::kMetaCacheMisses,
                      Metric::kSharedScanFetches, Metric::kSharedScanAttaches,
                      Metric::kSharedScanRearms, Metric::kQueuedQueries,
                      Metric::kRejectedQueries}) {
      l.Add(obs::DefOf(id).name, static_cast<double>(m.counter(id)));
    }
    std::vector<double> waits;
    for (const core::AdmissionEvent& ev : service_->admission_log()) {
      if (ev.outcome == "admitted") {
        waits.push_back(ev.decided_s - ev.submitted_s);
      }
    }
    l.Add("serving.admission_wait_p50_s", Percentile(waits, 0.5));
    l.Add("serving.admission_wait_p90_s", Percentile(waits, 0.9));
    return slots;
  }

  std::unique_ptr<core::QueryService> service_;
  std::vector<std::shared_ptr<obs::Tracer>> live_traces_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  const std::string& w = options.workload;
  if (w == "scan") return std::make_unique<ScanWorkload>(options);
  if (w == "join") return std::make_unique<JoinWorkload>(options);
  if (w == "fleet") return std::make_unique<FleetWorkload>(options);
  if (w == "serve") return std::make_unique<ServeWorkload>(options);
  return nullptr;
}

}  // namespace lambada::benchmark
