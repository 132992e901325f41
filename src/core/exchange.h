#ifndef LAMBADA_CORE_EXCHANGE_H_
#define LAMBADA_CORE_EXCHANGE_H_

#include <string>
#include <vector>

#include "cloud/faas.h"
#include "common/status.h"
#include "core/plan.h"
#include "engine/table.h"
#include "obs/metrics.h"
#include "sim/async.h"

namespace lambada::core {

/// Timing breakdown of one exchange execution on one worker, mirroring the
/// phases of Figure 13 (per round: write, wait, read). Request and byte
/// counters live in the registry under the exchange.* names; bytes there
/// are REAL serialized bytes — the worker scales them by data_scale when
/// folding them into its own registry.
struct ExchangeMetrics {
  struct Round {
    double partition_s = 0;
    double write_s = 0;
    double wait_s = 0;
    double read_s = 0;
  };
  std::vector<Round> rounds;
  obs::MetricsRegistry registry;
};

/// Decomposes P into `levels` near-equal factors whose product is exactly
/// P (the side lengths of the exchange grid). Exact factorization keeps
/// every grid cell occupied, so every per-phase target worker exists —
/// this is how the algorithm "works also for non-quadratic numbers of
/// workers" (Section 4.4.2). Fails if P has no usable factorization (e.g.,
/// a large prime for levels >= 2); the driver then adjusts P.
Result<std::vector<int>> FactorizeWorkers(int P, int levels);

/// Largest P' <= P that FactorizeWorkers accepts (with balance constraints)
/// for the given level count. Used by the driver to round worker counts.
int LargestFactorizableWorkerCount(int P, int levels);

/// Runs the serverless exchange operator (Algorithms 1-2) on worker `p` of
/// `P`: hash-partitions `input` by `spec.keys`, shuffles through S3 in
/// `spec.levels` rounds, and returns all rows whose hash partition is `p`.
///
/// Workers communicate only through the object store: each round, every
/// sender PUTs one write-combined file with its part offsets encoded in
/// the name; every receiver polls LIST until each sender of its group has
/// a file, then reads its slices with ranged GETs, one request at a time
/// in LIST order. A listed file that no sender wrote (its name does not
/// parse, its offsets disagree with its listed size, or its sender
/// already has a file) fails the receiver with an IOError naming the key.
///
/// `input` may be a schema-less empty chunk (zero columns): the worker
/// then still writes its (empty) slices every round — so no receiver ever
/// stalls waiting for it — and adopts the schema of whatever rows it
/// receives. This is what lets every worker of a join fragment join both
/// exchanges even when the build relation has fewer files than workers.
sim::Async<Result<engine::TableChunk>> RunExchange(
    cloud::WorkerEnv& env, const ExchangeSpec& spec, int p, int P,
    engine::TableChunk input, ExchangeMetrics* metrics = nullptr);

/// Creates the `spec.num_buckets` exchange buckets ("{prefix}-{i}") in the
/// object store. Done once at installation time ("this can be done at
/// installation time and does not induce costs", Section 4.4.1).
Status CreateExchangeBuckets(cloud::ObjectStore* s3,
                             const ExchangeSpec& spec);

/// Analytic request counts per Table 2, used by tests and the Figure 9
/// cost model: reads/writes/lists issued by ALL P workers together.
/// `write_combining` = false models BasicExchange (one file per sender
/// and receiver), which RunExchange itself does not run.
struct ExchangeRequestCounts {
  double reads = 0;
  double writes = 0;
  double lists = 0;
  int scans = 0;  ///< How many times the input is read+written.
};
ExchangeRequestCounts PredictExchangeRequests(int P, int levels,
                                              bool write_combining);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_EXCHANGE_H_
