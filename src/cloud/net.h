#ifndef LAMBADA_CLOUD_NET_H_
#define LAMBADA_CLOUD_NET_H_

#include <memory>

#include "common/rng.h"
#include "sim/resources.h"

namespace lambada::obs {
class MetricsRegistry;
class Tracer;
}

namespace lambada::cloud {

class CostLedger;

/// Policy for hedged object-store GETs: after the caller-observed p90
/// latency (at least 20 ms, once 8 GETs have completed) elapses without a
/// response, issue a duplicate request and take whichever answer lands
/// first (the tail-tolerance trick of Dean & Barroso's "The Tail at
/// Scale"). Disabled by default; the driver enables it per query via
/// RunOptions. The fixed values live with S3Client.
struct HedgeConfig {
  bool enabled = false;
};

/// Network-side identity of a caller (a worker or the driver): its NIC and
/// its private randomness stream for latency sampling. Every service call
/// takes a NetContext so that transfer time is charged against the right
/// link and latency draws are reproducible per caller.
struct NetContext {
  sim::SharedLink* nic = nullptr;  ///< May be null for zero-size transfers.
  Rng* rng = nullptr;
  /// Multiplier applied to transferred byte counts to model datasets larger
  /// than the real bytes held in memory (see DESIGN.md "virtual scaling").
  double data_scale = 1.0;
  /// Optional request telemetry sink (owned by the caller's environment):
  /// S3Client counts s3.retries, s3.hedged_requests and s3.hedge_wins
  /// into it.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional count of the detached request coroutines a hedged GET can
  /// leave in flight (owned by the caller's environment, which is only
  /// torn down once it drains to zero).
  int* inflight_requests = nullptr;
  /// Optional hedging policy; null or disabled means plain requests.
  const HedgeConfig* hedge = nullptr;
  /// Optional tracing sink: request-level events (injected faults, backoff
  /// retries, hedges) become instant annotations on `span`, which is the
  /// operation span current when this context was minted (scan, exchange,
  /// or the worker/driver root).
  obs::Tracer* tracer = nullptr;
  uint64_t span = 0;
  /// Optional per-query cost attribution ledger. Services charge the global
  /// account ledger as always; when set, they mirror the same charge here so
  /// concurrent queries over one CloudEnv each get an exact bill.
  CostLedger* attribution = nullptr;
};

/// The paper-measured NIC profile of a serverless worker (Figure 6):
/// ~90 MiB/s sustained ingress/egress, with a credit-based burst whose
/// peak grows with the function's memory size.
sim::SharedLink::Config WorkerNicConfig(int memory_mib);

/// The driver's uplink (a development machine): effectively unshaped for
/// our purposes.
sim::SharedLink::Config DriverNicConfig();

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_NET_H_
