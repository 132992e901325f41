#ifndef LAMBADA_CORE_SESSION_MANAGER_H_
#define LAMBADA_CORE_SESSION_MANAGER_H_

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "cloud/meta_cache.h"
#include "cloud/scan_share.h"
#include "core/driver.h"
#include "obs/metrics.h"
#include "sim/async.h"

namespace lambada::core {

/// Per-tenant admission policy of the query service (docs/SERVING.md).
struct TenantOptions {
  std::string id;
  /// Queries of this tenant running at once; excess submissions queue.
  int max_concurrent = 4;
  /// Cumulative spend ceiling. A submission arriving with the tenant at or
  /// over budget is rejected (typed ResourceExhausted naming the tenant);
  /// a query that crosses the ceiling mid-flight still completes.
  double budget_usd = std::numeric_limits<double>::infinity();
  /// Submissions waiting in the admission queue per tenant; excess is
  /// rejected instead of queued.
  int max_queue_depth = 64;
  /// Longest virtual-time wait in the admission queue before a queued
  /// submission gives up with DeadlineExceeded.
  double queue_deadline_s = 120.0;
};

/// Service-wide configuration.
struct ServingOptions {
  /// Queries running at once across all tenants.
  int max_concurrent = 16;
  /// DynamoDB table of the metadata cache (cloud/meta_cache.h).
  std::string meta_table = "lambada-meta-cache";
  /// Serving deployments get their own function family and result-queue
  /// namespace. Together with the per-deployment query ids
  /// (cloud::Cloud::NextQueryId), which keep plan, result and exchange
  /// keys apart, a solo Driver next to a QueryService never collides.
  std::string function_prefix = "lambada-sw";
  std::string result_queue = "lambada-sw-results";
};

/// One admission decision, in decision order (deterministic virtual time).
struct AdmissionEvent {
  std::string tenant;
  uint64_t ticket = 0;
  /// "admitted", "rejected_budget", "rejected_queue", "expired",
  /// "rejected_unknown".
  std::string outcome;
  double submitted_s = 0;
  double decided_s = 0;
};

/// Live accounting for one tenant.
struct TenantUsage {
  int running = 0;
  int queued = 0;
  double spent_usd = 0;
  int64_t served = 0;
  int64_t rejected = 0;
};

/// Query-as-a-service front end (Section 6 discussion: amortizing the
/// serverless deployment over many users): admits N concurrent
/// Driver::Runs over one shared Cloud, enforcing per-tenant concurrency
/// and cost budgets, and wiring the two sharing layers — the metadata
/// cache and the shared-scan broker — into every worker it starts.
///
/// Admission is a deterministic FIFO over submission tickets: when a slot
/// frees, the oldest waiting submission whose tenant has capacity runs
/// (skipping over head-of-line waiters of saturated tenants). All state
/// changes happen on the simulator thread; there is no locking.
class QueryService {
 public:
  explicit QueryService(cloud::Cloud* cloud, ServingOptions options = {});

  /// Registers a tenant; Invalid on duplicate id.
  Status AddTenant(TenantOptions tenant);

  /// Submits one query for `tenant`. Resolves with the report once the
  /// query ran, or with a typed admission error:
  ///  - Invalid: unknown tenant;
  ///  - ResourceExhausted: tenant over budget or queue full (message names
  ///    the tenant);
  ///  - DeadlineExceeded: queued longer than queue_deadline_s.
  sim::Async<Result<QueryReport>> Submit(std::string tenant, Query query,
                                         RunOptions run_options);

  /// Tenant accounting (zero-value for unknown ids).
  TenantUsage Usage(const std::string& tenant) const;

  /// Every admission decision so far, in virtual-time order.
  const std::vector<AdmissionEvent>& admission_log() const {
    return admission_log_;
  }

  /// Serving counters (serving.*, meta_cache.*, shared_scan.*).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  Driver& driver() { return *driver_; }
  int running() const { return running_; }

 private:
  struct Tenant {
    TenantOptions opts;
    TenantUsage usage;
  };

  /// One queued submission. Shared between the Submit frame and the
  /// deadline watchdog so neither dereferences a dead frame.
  struct Waiter {
    explicit Waiter(sim::Simulator* sim) : event(sim) {}
    std::string tenant;
    uint64_t ticket = 0;
    double submitted_s = 0;
    sim::Event event;
    bool admitted = false;
    bool expired = false;
  };

  /// Owned submission state. Submit's public aggregate parameters are
  /// repacked into one shared_ptr before the coroutine is entered: GCC 12
  /// fails to copy braced prvalue aggregates into coroutine frames (the
  /// frame aliases the caller's temporary and both run the destructor), so
  /// the coroutine only ever takes a well-behaved class-type parameter.
  struct Submission {
    std::string tenant;
    Query query;
    RunOptions run_options;
  };

  sim::Async<Result<QueryReport>> SubmitImpl(std::shared_ptr<Submission> sub);

  /// Admits queued submissions in ticket order while slots last.
  void AdmitFromQueue();
  bool HasCapacity(const Tenant& t) const;
  void Record(const std::string& tenant, uint64_t ticket,
              const char* outcome, double submitted_s);

  cloud::Cloud* cloud_;
  ServingOptions options_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<cloud::MetadataCache> meta_cache_;
  std::unique_ptr<cloud::SharedScanBroker> scan_broker_;
  std::unique_ptr<Driver> driver_;
  std::map<std::string, Tenant> tenants_;
  std::deque<std::shared_ptr<Waiter>> queue_;
  /// Every admitted query's cost attribution ledger, kept for the
  /// service's lifetime: a superseded straggler or a slow invoker's late
  /// children keep charging their query's ledger after Submit returned.
  std::deque<cloud::CostLedger> ledgers_;
  int running_ = 0;
  uint64_t next_ticket_ = 0;
  std::vector<AdmissionEvent> admission_log_;
};

}  // namespace lambada::core

#endif  // LAMBADA_CORE_SESSION_MANAGER_H_
