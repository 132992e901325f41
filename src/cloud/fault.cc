#include "cloud/fault.h"

#include <string>

namespace lambada::cloud {

Status FaultInjector::InjectRequestFault(FaultOp op) {
  if (!plan_.enabled) return Status::OK();
  // One draw per request, segmented: [0, slowdown) -> SlowDown,
  // [slowdown, slowdown + error) -> 500, rest -> OK. Invokes have no
  // SlowDown segment.
  const double u = rng_.NextDouble();
  switch (op) {
    case FaultOp::kS3Get:
    case FaultOp::kS3Put: {
      const double error_rate = op == FaultOp::kS3Get
                                    ? plan_.s3_get_error_rate
                                    : plan_.s3_put_error_rate;
      if (u < plan_.s3_slowdown_rate) {
        ++injected_request_faults_;
        return Status::ResourceExhausted(
            "SlowDown: injected throttle (fault plan)");
      }
      if (u < plan_.s3_slowdown_rate + error_rate) {
        ++injected_request_faults_;
        return Status::Unavailable(
            std::string("InternalError: injected S3 ") +
            (op == FaultOp::kS3Get ? "GET" : "PUT") +
            " failure (fault plan)");
      }
      return Status::OK();
    }
    case FaultOp::kInvoke:
      if (u < plan_.invoke_error_rate) {
        ++injected_request_faults_;
        return Status::Unavailable(
            "ServiceException: injected invoke failure (fault plan)");
      }
      return Status::OK();
  }
  return Status::OK();
}

WorkerFate FaultInjector::DrawWorkerFate() {
  WorkerFate fate;
  if (!plan_.enabled) return fate;
  // Exactly two draws per invocation. The crash draw doubles as the site
  // selector: u1/crash_rate is uniform in [0,1) given a crash, so no extra
  // draw is needed and the stream stays rate-independent.
  const double u1 = rng_.NextDouble();
  const double u2 = rng_.NextDouble();
  if (plan_.worker_crash_rate > 0 && u1 < plan_.worker_crash_rate) {
    const double w_before = plan_.crash_before_weight;
    const double w_during = plan_.crash_during_weight;
    const double w_after = plan_.crash_after_weight;
    const double total = w_before + w_during + w_after;
    const double v = total > 0 ? (u1 / plan_.worker_crash_rate) * total : 0;
    if (total <= 0 || v < w_before) {
      fate.crash_site = CrashSite::kBeforeExchangeWrites;
    } else if (v < w_before + w_during) {
      fate.crash_site = CrashSite::kDuringExchangeWrites;
    } else {
      fate.crash_site = CrashSite::kAfterExchangeWrites;
    }
    ++crashes_armed_;
  }
  if (plan_.straggler_rate > 0 && u2 < plan_.straggler_rate) {
    fate.cpu_factor = plan_.straggler_cpu_factor;
    fate.net_factor = plan_.straggler_net_factor;
    ++stragglers_armed_;
  }
  return fate;
}

CrashSite FaultInjector::DrawInvokerFate(int generation) {
  if (!plan_.enabled) return CrashSite::kNone;
  // Exactly two draws per invoker, from the dedicated invoker stream:
  // the crash draw and the site draw. Generation gating applies after the
  // draws so sweeping max_generation never shifts this stream either.
  const double u1 = invoker_rng_.NextDouble();
  const double u2 = invoker_rng_.NextDouble();
  if (plan_.invoker_crash_rate <= 0 || u1 >= plan_.invoker_crash_rate) {
    return CrashSite::kNone;
  }
  if (generation > plan_.invoker_crash_max_generation) {
    return CrashSite::kNone;
  }
  const double w_before = plan_.invoker_crash_before_weight;
  const double w_during = plan_.invoker_crash_during_weight;
  const double total = w_before + w_during;
  const CrashSite site = (total <= 0 || u2 * total < w_before)
                             ? CrashSite::kBeforeInvokingChildren
                             : CrashSite::kWhileInvokingChildren;
  ++invoker_crashes_armed_;
  return site;
}

}  // namespace lambada::cloud
