#ifndef LAMBADA_CLOUD_FAULT_H_
#define LAMBADA_CLOUD_FAULT_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"

namespace lambada::cloud {

/// Where in a worker's lifetime an injected crash fires, relative to its
/// exchange writes. The exchange protocol's correctness argument hinges on
/// these three windows: before any partition byte exists, after some slots
/// are durable but not all (torn write), and after the full partition is
/// durable but before the result message is sent.
enum class CrashSite {
  kNone = 0,
  kBeforeExchangeWrites,
  kDuringExchangeWrites,
  kAfterExchangeWrites,
  // Invoker-loss sites (drawn per invoker from the separate invoker
  // stream, not the worker-fate stream): a worker responsible for a
  // subtree dies before invoking any child, or after half its children
  // went out — the silent-branch and partially-started-branch cases the
  // driver's subtree recovery must detect.
  kBeforeInvokingChildren,
  kWhileInvokingChildren,
};

/// The fate drawn for one worker invocation: whether (and where) its
/// handler dies, and how degraded its host is. Factors of 1.0 mean a
/// healthy host; a straggler gets shrunken CPU share and NIC bandwidth.
struct WorkerFate {
  CrashSite crash_site = CrashSite::kNone;
  double cpu_factor = 1.0;
  double net_factor = 1.0;
};

/// The request class a fault draw applies to.
enum class FaultOp {
  kS3Get = 0,
  kS3Put,
  kInvoke,
};

/// Declarative chaos schedule for a simulated region. All probabilities
/// are per-request (or per-invocation for worker fates); every draw comes
/// from one seeded stream consumed in virtual-time order, so a given
/// (plan, workload) pair replays the exact same fault schedule on every
/// run. Disabled plans draw nothing at all, which keeps every existing
/// RNG stream — and therefore every committed benchmark byte — intact.
struct FaultPlan {
  bool enabled = false;
  uint64_t seed = 1234;

  // Per-request injected error rates.
  double s3_get_error_rate = 0.0;   ///< GET answered with a 500.
  double s3_put_error_rate = 0.0;   ///< PUT answered with a 500.
  double s3_slowdown_rate = 0.0;    ///< GET/PUT answered "503 SlowDown".
  double invoke_error_rate = 0.0;   ///< Invoke answered with a 500.

  // Per-invocation worker fates.
  double worker_crash_rate = 0.0;   ///< Handler dies mid-run.
  /// Relative weights of the three crash windows (normalized internally).
  double crash_before_weight = 1.0;
  double crash_during_weight = 1.0;
  double crash_after_weight = 1.0;

  double straggler_rate = 0.0;      ///< Worker lands on a degraded host.
  double straggler_cpu_factor = 0.3;
  double straggler_net_factor = 0.3;

  // Per-invoker fates: a worker with a subtree to start dies before (or
  // halfway through) invoking it. Drawn from an RNG stream derived from
  // `seed` but separate from the request/fate stream above, so turning
  // invoker chaos on never shifts the draws the other hooks consume —
  // committed fault benchmarks stay bit-identical.
  double invoker_crash_rate = 0.0;
  double invoker_crash_before_weight = 1.0;  ///< Die before any child.
  double invoker_crash_during_weight = 1.0;  ///< Die mid-branch.
  /// Apply invoker crashes only to generations <= this (1 = gen-1 roots
  /// only; 2 adds the gen-2 inner nodes of a three-level tree).
  int invoker_crash_max_generation = 1;
};

/// Executes a FaultPlan: services consult it at their request hooks
/// (pre-request) and the FaaS layer asks it for a fate when a handler
/// starts. Counters of every injected fault let tests and benches audit
/// exactly what chaos a run experienced.
///
/// Determinism contract: each request hook consumes exactly one uniform
/// draw and each fate draw exactly two, *regardless of the configured
/// rates*, so changing a rate never shifts the stream consumed by the
/// other draws — fault schedules stay comparable across sweep points.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  bool enabled() const { return plan_.enabled; }
  const FaultPlan& plan() const { return plan_; }

  /// Draws whether this request fails with an injected error. Returns OK
  /// normally; a non-OK result is always retriable (Unavailable for 500s,
  /// ResourceExhausted for SlowDown). Draws nothing when disabled.
  Status InjectRequestFault(FaultOp op);

  /// Draws the fate of one worker invocation. Healthy fate (and no draw)
  /// when disabled.
  WorkerFate DrawWorkerFate();

  /// Draws the fate of one invoker — a generation-`generation` worker
  /// about to start its child subtrees. Exactly two draws from the
  /// invoker stream regardless of rates (none when disabled), keeping the
  /// request/fate stream untouched. Returns kNone, or one of the
  /// kBeforeInvokingChildren / kWhileInvokingChildren sites.
  CrashSite DrawInvokerFate(int generation);

  // Injection counters.
  int64_t injected_request_faults() const { return injected_request_faults_; }
  int64_t crashes_armed() const { return crashes_armed_; }
  int64_t stragglers_armed() const { return stragglers_armed_; }
  int64_t invoker_crashes_armed() const { return invoker_crashes_armed_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  /// Separate stream for invoker fates (see FaultPlan::invoker_crash_rate).
  Rng invoker_rng_{plan_.seed ^ 0x1e7ee5eedULL};
  int64_t injected_request_faults_ = 0;
  int64_t crashes_armed_ = 0;
  int64_t stragglers_armed_ = 0;
  int64_t invoker_crashes_armed_ = 0;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_FAULT_H_
