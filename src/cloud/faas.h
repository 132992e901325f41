#ifndef LAMBADA_CLOUD_FAAS_H_
#define LAMBADA_CLOUD_FAAS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cost_ledger.h"
#include "cloud/fault.h"
#include "cloud/kv_store.h"
#include "cloud/net.h"
#include "cloud/object_store.h"
#include "cloud/queue_service.h"
#include "cloud/regions.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/async.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace lambada::cloud {

class FaasService;
class MetadataCache;
class SharedScanBroker;

/// Handles to every serverless service a worker (or the driver) can reach.
struct Services {
  sim::Simulator* sim = nullptr;
  ObjectStore* s3 = nullptr;
  QueueService* sqs = nullptr;
  KeyValueStore* ddb = nullptr;
  FaasService* faas = nullptr;
  CostLedger* ledger = nullptr;
};

/// How a caller reaches the Invoke API: its network latency to the API
/// endpoint and an optional client-side throughput cap (the paper's driver
/// peaks at 220-290 invocations/s from Zurich regardless of thread count).
struct InvokerProfile {
  double latency_median_s = 0.012;
  double latency_sigma = 0.15;
  sim::TokenBucket* client_bucket = nullptr;  ///< Borrowed; may be null.
};

/// Per-invocation timing record collected for the paper's figures. In the
/// real system these travel in the worker's SQS result message; keeping
/// them host-side is free observability that does not perturb the model.
struct WorkerMetrics {
  int64_t worker_id = -1;        ///< Filled in by the handler.
  double invoke_initiated = 0;   ///< Caller called Invoke.
  double invoke_accepted = 0;    ///< API call returned to the caller.
  double handler_start = 0;      ///< Container ready, handler running.
  double handler_end = 0;
  bool cold_start = false;
  /// Driver attempt id this invocation ran as (0 = first); stamped by the
  /// handler from its payload so per-worker attempt timelines can be
  /// reconstructed from completed_metrics().
  int64_t attempt = 0;
  /// Query this invocation worked for; stamped by the handler from its
  /// payload so concurrent queries over one FaasService can slice
  /// completed_metrics() without cross-talk.
  std::string query_id;
};

/// Execution environment of one serverless worker invocation: its CPU
/// share, its shaped NIC, its memory budget, its randomness, and handles
/// to all shared services.
class WorkerEnv {
 public:
  WorkerEnv(Services services, std::string function_name, int memory_mib,
            uint64_t seed, bool cold, WorkerFate fate = {});

  Services& services() { return services_; }
  /// Name of the function this invocation runs as (cf. the
  /// AWS_LAMBDA_FUNCTION_NAME environment variable) — used by workers to
  /// invoke further instances of themselves (Section 4.2).
  const std::string& function_name() const { return function_name_; }
  sim::Simulator* sim() { return services_.sim; }
  int memory_mib() const { return memory_mib_; }
  bool cold_start() const { return cold_; }
  Rng& rng() { return rng_; }

  /// The vCPU share of this function: memory/1792, as documented by AWS
  /// and confirmed in Figure 4.
  double cpu_share() const { return memory_mib_ / 1792.0; }
  sim::ProcessorSharing& cpu() { return cpu_; }
  sim::SharedLink& nic() { return nic_; }

  /// Runs `vcpu_seconds` of single-threaded computation on this worker's
  /// CPU share (one "thread" of Figure 4).
  sim::Async<void> Compute(double vcpu_seconds) {
    return cpu_.Consume(vcpu_seconds);
  }

  /// Network context for service calls made by this worker. `data_scale`
  /// multiplies modeled byte counts (see DESIGN.md virtual scaling).
  NetContext net() {
    return NetContext{&nic_, &rng_, data_scale, &registry_,
                      &inflight_requests_, &hedge_, tracer_, trace_span_,
                      attribution};
  }

  // -- Tracing ---------------------------------------------------------------

  /// Query-scoped tracer, or null when tracing is off. Handed to each
  /// environment by FaasService at invocation start.
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// The span enclosing whatever this worker is currently doing (the
  /// worker-attempt span, or a scan/exchange child). Service clients
  /// minted via net() attach request-level annotations to it.
  uint64_t trace_span() const { return trace_span_; }
  void set_trace_span(uint64_t span) { trace_span_ = span; }

  // -- Fault plan ------------------------------------------------------------

  /// The fate this invocation drew from the region's FaultInjector.
  const WorkerFate& fate() const { return fate_; }
  /// Consumes the armed crash at `site`: returns true exactly once, when
  /// this invocation was fated to die at that point in its lifetime. The
  /// handler must then abandon its work without reporting a result.
  bool MaybeCrash(CrashSite site) {
    if (crashed_ || fate_.crash_site != site) return false;
    crashed_ = true;
    if (tracer_ != nullptr) tracer_->Instant(trace_span_, "fault.crash");
    return true;
  }
  /// Kills this invocation at a site drawn outside its WorkerFate — the
  /// invoker-loss fates of core/invocation_tree.h, drawn per invoker from
  /// the fault plan's dedicated stream. The handler must then abandon its
  /// work without reporting a result, exactly as after MaybeCrash.
  void CrashNow() {
    crashed_ = true;
    if (tracer_ != nullptr) tracer_->Instant(trace_span_, "fault.crash");
  }
  bool crashed() const { return crashed_; }

  /// The region's fault injector, for fates that can only be drawn inside
  /// the handler (invoker loss: whether a worker has children to invoke
  /// is known only after its payload is parsed). Host-side like the
  /// serving hooks — never serialized; null when injection is off.
  FaultInjector* fault_injector() const { return fault_injector_; }
  void set_fault_injector(FaultInjector* fault) { fault_injector_ = fault; }

  /// Detached request coroutines (hedge losers) still in flight against
  /// this environment's NIC and RNG.
  int inflight_requests() const { return inflight_requests_; }
  /// Hedging policy handed to service clients via net(); the handler
  /// enables it from the invocation payload.
  HedgeConfig& hedge_config() { return hedge_; }

  /// Profile for invoking further workers from inside the region
  /// (Section 4.2 two-level invocation).
  InvokerProfile invoker_profile();

  // -- Memory accounting ----------------------------------------------------
  // The event handler starts the engine with a budget slightly below the
  // function size so that out-of-memory is reported rather than the worker
  // dying silently (Section 3.3).

  int64_t memory_budget_bytes() const;
  Status ReserveMemory(int64_t bytes);
  void ReleaseMemory(int64_t bytes);
  int64_t memory_used() const { return memory_used_; }

  // -- Metrics ---------------------------------------------------------------

  WorkerMetrics& metrics() { return metrics_; }
  /// This attempt's telemetry: the scan, exchange and join counters, the
  /// processing time, and the request counters of every S3 client minted
  /// via net(). The result message ships a copy (Section 3.3).
  obs::MetricsRegistry& registry() { return registry_; }

  /// Scale factor applied to modeled data sizes and compute work.
  double data_scale = 1.0;

  // -- Serving hooks ---------------------------------------------------------
  // Host-side like data_scale: set by FaasService from the invocation,
  // never serialized. All default to null, so solo drivers are untouched.

  /// Per-query cost ledger; mirrored into net() so every service call this
  /// worker makes is attributed to its query.
  CostLedger* attribution = nullptr;
  /// Warm metadata cache consulted by scans for LISTs and footers.
  MetadataCache* meta_cache = nullptr;
  /// Shared-scan broker: concurrent queries over one extent share the GET.
  SharedScanBroker* scan_broker = nullptr;

 private:
  Services services_;
  std::string function_name_;
  int memory_mib_;
  bool cold_;
  Rng rng_;
  WorkerFate fate_;
  bool crashed_ = false;
  FaultInjector* fault_injector_ = nullptr;
  sim::ProcessorSharing cpu_;
  sim::SharedLink nic_;
  int64_t memory_used_ = 0;
  WorkerMetrics metrics_;
  obs::MetricsRegistry registry_;
  int inflight_requests_ = 0;
  HedgeConfig hedge_;
  obs::Tracer* tracer_ = nullptr;
  uint64_t trace_span_ = 0;
};

/// RAII child span scoped to a worker operation: opens a child of the
/// environment's current span, makes it current, and on destruction closes
/// it and restores the previous one. A no-op when tracing is off. Safe in
/// coroutines — the destructor runs when the frame unwinds, so an early
/// co_return (a crashed worker) still closes the span at crash time.
class EnvSpan {
 public:
  EnvSpan(WorkerEnv* env, std::string cat, std::string name) : env_(env) {
    prev_ = env->trace_span();
    id_ = obs::Begin(env->tracer(), prev_, std::move(cat), std::move(name));
    if (id_ != 0) env->set_trace_span(id_);
  }
  EnvSpan(const EnvSpan&) = delete;
  EnvSpan& operator=(const EnvSpan&) = delete;
  ~EnvSpan() {
    if (id_ != 0) {
      env_->tracer()->EndSpan(id_);
      env_->set_trace_span(prev_);
    }
  }
  uint64_t id() const { return id_; }

 private:
  WorkerEnv* env_;
  uint64_t prev_ = 0;
  uint64_t id_ = 0;
};

/// The handler run by each invocation: the query-engine entry point.
using Handler =
    std::function<sim::Async<Status>(WorkerEnv&, std::string payload)>;

/// Registered function: handler code plus resources, as configured at
/// installation time (Section 3.3).
struct FunctionConfig {
  std::string name;
  int memory_mib = 2048;
  double timeout_s = 300.0;
  Handler handler;
};

/// Service-level behaviour of the simulated AWS Lambda.
struct FaasConfig {
  /// Default account limit on concurrent executions (the paper had to
  /// raise it via a support request for the 3200/4096-worker runs).
  int concurrency_limit = 1000;
  /// Invocation-rate limit: "ten times the limit on the number of
  /// concurrent invocations per second" (Section 4.2).
  double invocation_rate_multiple = 10.0;
  /// Container start latencies.
  double cold_start_median_s = 0.25;
  double cold_start_sigma = 0.35;
  double warm_start_median_s = 0.015;
  double warm_start_sigma = 0.2;
  /// Cold containers additionally load code from the dependency layer;
  /// modeled as extra CPU work at handler start (the paper observes ~20%
  /// slower cold executions).
  double cold_init_cpu_s = 0.6;
  /// Idle warm containers are reclaimed after this long.
  double warm_container_ttl_s = 600.0;
  /// Async invocation payload limit (AWS: 256 KB).
  size_t max_payload_bytes = 256 * 1024;
};

/// Simulated AWS Lambda: function registry, invocation admission
/// (concurrency + rate limits), cold/warm container pool, per-invocation
/// billing, and the bridge into handler coroutines.
class FaasService {
 public:
  FaasService(sim::Simulator* sim, CostLedger* ledger, Services services,
              const FaasConfig& config = {});

  /// Registers (or replaces) a function. Free control-plane operation.
  Status CreateFunction(FunctionConfig config);
  /// Deletes warm state, forcing cold starts (used between experiment
  /// configurations, which the paper does by re-creating the function).
  void ResetWarmPool(const std::string& name);

  /// Asynchronous invocation ("Event" type): returns once the API call has
  /// been accepted; the worker runs detached. Fails with ResourceExhausted
  /// when the concurrency or rate limit is hit (the caller may retry).
  /// `attribution` (optional) is the per-query cost ledger: the invocation
  /// and the worker's compute/requests are mirrored into it, and the worker
  /// environment inherits it (plus the serving hooks installed below).
  sim::Async<Status> Invoke(InvokerProfile profile, Rng* caller_rng,
                            std::string function, std::string payload,
                            CostLedger* attribution = nullptr);

  /// Invoke under the "aggressive timeouts and retries" policy every
  /// caller uses (the driver and tree invokers alike): a retriable failure
  /// is retried up to 8 times after a jittered backoff that starts at
  /// 50 ms and doubles. Each retry draws one uniform from `caller_rng`,
  /// and only after a retriable failure. Returns the last call's status.
  sim::Async<Status> InvokeWithRetries(InvokerProfile profile,
                                       Rng* caller_rng, std::string function,
                                       std::string payload,
                                       CostLedger* attribution);

  /// Timing records of completed invocations, in completion order.
  const std::vector<WorkerMetrics>& completed_metrics() const {
    return completed_metrics_;
  }
  void ClearMetrics() { completed_metrics_.clear(); }

  /// Number of invocations that ended with a non-OK handler status.
  int64_t failed_handlers() const { return failed_handlers_; }

  const FaasConfig& config() const { return config_; }
  void set_concurrency_limit(int limit) { config_.concurrency_limit = limit; }

  /// Installs the region's fault injector (null = no injection): Invoke
  /// draws per-request failures, and each started handler draws a
  /// WorkerFate (crash site, straggler slowdown).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  /// Installs the query-scoped tracer (null = tracing off). Every worker
  /// environment started while it is set gets a handle; host-side like
  /// the fault injector, so payload bytes never change.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the serving layer's shared caches (null = off). Host-side
  /// like the fault injector: every worker environment started while they
  /// are set gets the handles, and payload bytes never change.
  void set_serving(MetadataCache* meta_cache, SharedScanBroker* scan_broker) {
    meta_cache_ = meta_cache;
    scan_broker_ = scan_broker;
  }

 private:
  struct Function {
    FunctionConfig config;
    /// Expiry times of idle warm containers.
    std::deque<double> warm_pool;
  };

  sim::Async<void> RunWorker(Function* fn, std::string payload, bool cold,
                             double invoke_initiated, double accepted_at,
                             CostLedger* attribution);

  sim::Simulator* sim_;
  CostLedger* ledger_;
  Services services_;
  FaasConfig config_;
  sim::TokenBucket api_rate_;
  std::map<std::string, Function> functions_;
  int active_ = 0;
  int64_t failed_handlers_ = 0;
  uint64_t next_worker_seed_ = 0x1a3bada0;
  std::vector<WorkerMetrics> completed_metrics_;
  FaultInjector* fault_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  MetadataCache* meta_cache_ = nullptr;
  SharedScanBroker* scan_broker_ = nullptr;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_FAAS_H_
