#ifndef LAMBADA_MODELS_COSTMODEL_H_
#define LAMBADA_MODELS_COSTMODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lambada::models {

/// Analytic architecture-comparison models behind Figure 1 of the paper.
/// Figure 1 is itself "obtained through simulation", so these are faithful
/// re-implementations of that simulation with the paper's parameters.

/// One (cost, time) point of Figure 1a.
struct JobScopedPoint {
  int workers = 0;
  double running_time_s = 0;
  double cost_usd = 0;
};

/// Parameters of the Figure 1a simulation (footnotes 1-2): a query
/// scanning 1 TB from S3 with job-scoped resources.
struct JobScopedParams {
  double data_bytes = 1e12;
  // IaaS: c5n.xlarge instances.
  double vm_price_per_hour = 0.216;
  double vm_scan_bytes_per_s = 0.6e9;
  double vm_startup_s = 120.0;  // "2 min start-up time for IaaS".
  // FaaS: 2 GiB workers.
  double faas_gib = 2.0;
  double faas_scan_bytes_per_s = 89e6;  // ~85 MiB/s.
  double faas_startup_s = 4.0;          // "4 s for FaaS".
  double faas_price_per_gib_s = 1.65e-5;
};

/// Figure 1a, IaaS series (1..256 VMs, powers of two).
std::vector<JobScopedPoint> JobScopedIaas(const JobScopedParams& p = {});
/// Figure 1a, FaaS series (8..4096 concurrent invocations).
std::vector<JobScopedPoint> JobScopedFaas(const JobScopedParams& p = {});

/// One always-on configuration of Figure 1b.
struct AlwaysOnSeries {
  std::string label;
  /// Hourly cost at the given queries/hour (same length as `qph`).
  std::vector<double> hourly_cost_usd;
};

/// Parameters of Figure 1b (footnote 3): serve a 1 TB scan in under 10 s.
struct AlwaysOnParams {
  std::vector<double> queries_per_hour = {1, 2, 4, 8, 16, 32, 64};
  // 3x r5.12xlarge (DRAM), 7x i3.16xlarge (NVMe), 13x c5n.18xlarge (S3).
  int dram_vms = 3;
  double dram_vm_price = 3.024;
  int nvme_vms = 7;
  double nvme_vm_price = 4.992;
  int s3_vms = 13;
  double s3_vm_price = 3.888;
  /// QaaS: $5 per TiB scanned => ~$5 per query on 1 TB.
  double qaas_per_query = 5.0;
  /// FaaS: per-query cost of the Lambada-style scan (workers + requests).
  double faas_per_query = 0.40;
};

/// All five series of Figure 1b.
std::vector<AlwaysOnSeries> AlwaysOnComparison(const AlwaysOnParams& p = {});

// ---------------------------------------------------------------------------
// Exchange-traffic model (optimizer join costing)
// ---------------------------------------------------------------------------
// What the optimizer compares when it picks a join's exchange strategy:
// the S3 bytes and requests each alternative moves, priced with the
// request tariffs plus the worker-seconds spent pushing those bytes at
// the per-worker S3 bandwidth. All quantities are fleet totals.

struct ExchangeTrafficParams {
  double s3_put_usd = 5.0e-6;  ///< $5 per 1M PUT/LIST requests.
  double s3_get_usd = 4.0e-7;  ///< $0.4 per 1M GET requests.
  /// Per-worker S3 bandwidth; matches JobScopedParams::faas_scan_bytes_per_s.
  double worker_bytes_per_s = 89e6;
  /// $/worker-second: faas_gib * faas_price_per_gib_s of JobScopedParams.
  double worker_usd_per_s = 2.0 * 1.65e-5;
};

/// Modeled traffic of one strategy alternative.
struct TrafficEstimate {
  double bytes = 0;         ///< Bytes written + read through S3.
  double put_requests = 0;  ///< PUTs issued by all workers.
  double get_requests = 0;  ///< GETs issued by all workers.
  double usd = 0;           ///< Requests plus worker time on `bytes`.
};

/// A partitioned join's traffic: both sides traverse a `levels`-round
/// write-combined hash exchange over `workers` — every input byte is
/// written and read once per round, and the request counts follow Table 2
/// of the paper (levels*P PUTs and <= levels*P*ceil(P^(1/levels)) GETs
/// per side).
TrafficEstimate PartitionedExchangeTraffic(
    double probe_bytes, double build_bytes, int workers, int levels,
    const ExchangeTrafficParams& p = {});

/// A broadcast join's traffic: every worker reads the whole build
/// relation (build_bytes * workers GETs-side bytes, ~2 requests per file
/// per worker for footer + data), and neither side runs an exchange.
TrafficEstimate BroadcastTraffic(double build_bytes, int64_t build_files,
                                 int workers,
                                 const ExchangeTrafficParams& p = {});

// ---------------------------------------------------------------------------
// Invocation-tree start-time model (Section 4.2 / Figure 5)
// ---------------------------------------------------------------------------
// When does the last worker of an N-level invocation tree start running?
// The driver picks the tree depth by minimizing this (core/invocation_tree),
// and the fleet-aware mitigation knobs scale with the first-to-last start
// spread it predicts. Defaults match the "eu" region of Table 1 and the
// FaaS cold-start parameters of cloud/faas.h.

struct InvocationTreeParams {
  /// Driver -> Invoke API call latency (WAN; Table 1 "Remote latency").
  double driver_invoke_latency_s = 0.036;
  /// Aggregate driver-side invocation rate cap (Table 1, ~294/s from
  /// Zurich regardless of thread count).
  double driver_rate_per_s = 294.0;
  /// Concurrent driver invocation threads (Section 4.2 uses 128).
  int driver_threads = 128;
  /// Invoke call latency from inside the region ("Intra-region rate").
  double worker_invoke_latency_s = 1.0 / 81.0;
  /// Cold container start plus dependency-layer init until the handler
  /// can issue its first child invoke.
  double worker_start_s = 0.9;
};

/// Modeled time until the LAST worker of the tree is running. `fanout`
/// follows core/invocation_tree.h: fanout[0] bounds the driver's direct
/// invocations (the generation-1 roots), fanout[g] bounds the children
/// one generation-g worker invokes serially; fanout.size() is the depth.
double TreeAllRunningTime(const std::vector<uint32_t>& fanout,
                          uint32_t workers,
                          const InvocationTreeParams& p = {});

/// Modeled spread between the first and the last worker start — the
/// start skew the fleet-size-aware mitigation knobs scale with (a stall
/// watchdog shorter than this would re-invoke workers that were never
/// late, just deep in the tree).
double TreeStartSkew(const std::vector<uint32_t>& fanout, uint32_t workers,
                     const InvocationTreeParams& p = {});

}  // namespace lambada::models

#endif  // LAMBADA_MODELS_COSTMODEL_H_
