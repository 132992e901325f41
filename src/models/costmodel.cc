#include "models/costmodel.h"

#include <cmath>

namespace lambada::models {

std::vector<JobScopedPoint> JobScopedIaas(const JobScopedParams& p) {
  std::vector<JobScopedPoint> out;
  for (int n = 1; n <= 256; n *= 2) {
    JobScopedPoint pt;
    pt.workers = n;
    double scan_s = p.data_bytes / (n * p.vm_scan_bytes_per_s);
    pt.running_time_s = p.vm_startup_s + scan_s;
    // VMs are billed from start-up through the scan.
    pt.cost_usd = n * p.vm_price_per_hour * pt.running_time_s / 3600.0;
    out.push_back(pt);
  }
  return out;
}

std::vector<JobScopedPoint> JobScopedFaas(const JobScopedParams& p) {
  std::vector<JobScopedPoint> out;
  for (int n = 8; n <= 4096; n *= 2) {
    JobScopedPoint pt;
    pt.workers = n;
    double scan_s = p.data_bytes / (n * p.faas_scan_bytes_per_s);
    pt.running_time_s = p.faas_startup_s + scan_s;
    // Functions are billed for execution only (start-up is the provider's).
    pt.cost_usd = n * p.faas_gib * scan_s * p.faas_price_per_gib_s;
    out.push_back(pt);
  }
  return out;
}

std::vector<AlwaysOnSeries> AlwaysOnComparison(const AlwaysOnParams& p) {
  std::vector<AlwaysOnSeries> out;
  auto flat = [&](const std::string& label, double hourly) {
    AlwaysOnSeries s;
    s.label = label;
    s.hourly_cost_usd.assign(p.queries_per_hour.size(), hourly);
    return s;
  };
  out.push_back(flat("13 VMs (S3)", p.s3_vms * p.s3_vm_price));
  out.push_back(flat("7 VMs (NVMe)", p.nvme_vms * p.nvme_vm_price));
  out.push_back(flat("3 VMs (DRAM)", p.dram_vms * p.dram_vm_price));
  AlwaysOnSeries qaas{"QaaS (S3)", {}};
  AlwaysOnSeries faas{"FaaS (S3)", {}};
  for (double qph : p.queries_per_hour) {
    qaas.hourly_cost_usd.push_back(p.qaas_per_query * qph);
    faas.hourly_cost_usd.push_back(p.faas_per_query * qph);
  }
  out.push_back(std::move(qaas));
  out.push_back(std::move(faas));
  return out;
}

namespace {

double PriceTraffic(TrafficEstimate* t, const ExchangeTrafficParams& p) {
  return t->put_requests * p.s3_put_usd + t->get_requests * p.s3_get_usd +
         t->bytes / p.worker_bytes_per_s * p.worker_usd_per_s;
}

}  // namespace

TrafficEstimate PartitionedExchangeTraffic(double probe_bytes,
                                           double build_bytes, int workers,
                                           int levels,
                                           const ExchangeTrafficParams& p) {
  TrafficEstimate t;
  double P = workers < 1 ? 1.0 : static_cast<double>(workers);
  double L = levels < 1 ? 1.0 : static_cast<double>(levels);
  // Each round rewrites and rereads the full input of its side.
  t.bytes = 2.0 * L * (probe_bytes + build_bytes);
  // Table 2: with write combining each worker writes one file per round;
  // readers poll ~P^(1/levels) senders per round.
  double fanout = std::ceil(std::pow(P, 1.0 / L));
  double per_side_puts = L * P;
  double per_side_gets = L * P * fanout;
  t.put_requests = 2.0 * per_side_puts;
  t.get_requests = 2.0 * per_side_gets;
  t.usd = PriceTraffic(&t, p);
  return t;
}

TrafficEstimate BroadcastTraffic(double build_bytes, int64_t build_files,
                                 int workers,
                                 const ExchangeTrafficParams& p) {
  TrafficEstimate t;
  double P = workers < 1 ? 1.0 : static_cast<double>(workers);
  t.bytes = build_bytes * P;
  // Per worker and build file: one footer read plus one (coalesced) data
  // read. Coarse, but the request term only matters for tiny relations
  // where it correctly penalizes broadcasting many small files.
  t.get_requests = 2.0 * P * static_cast<double>(build_files < 0 ? 0 : build_files);
  t.usd = PriceTraffic(&t, p);
  return t;
}

namespace {

/// First and last worker start times of one tree shape. The driver issues
/// the generation-1 roots at min(rate cap, threads/latency); below a root
/// every level adds its serial child-invocation time plus one container
/// start, and the last worker hangs off the last root's longest chain.
struct TreeStartWindow {
  double first = 0;
  double last = 0;
};

TreeStartWindow TreeWindow(const std::vector<uint32_t>& fanout,
                           uint32_t workers,
                           const InvocationTreeParams& p) {
  TreeStartWindow w;
  if (workers == 0 || fanout.empty()) return w;
  const size_t depth = fanout.size();
  // Subtree capacities: cap[g] ids under one generation-g root (itself
  // included); leaves cover exactly themselves.
  std::vector<double> cap(depth + 1, 1.0);
  for (int g = static_cast<int>(depth) - 1; g >= 1; --g) {
    cap[g] = 1.0 + static_cast<double>(fanout[g]) * cap[g + 1];
  }
  double roots = depth == 1 ? static_cast<double>(workers)
                            : std::ceil(static_cast<double>(workers) / cap[1]);
  roots = std::min(roots, static_cast<double>(fanout[0]));
  roots = std::max(roots, 1.0);
  const double rate =
      std::min(p.driver_rate_per_s,
               static_cast<double>(std::max(1, p.driver_threads)) /
                   std::max(1e-9, p.driver_invoke_latency_s));
  w.first = p.driver_invoke_latency_s + p.worker_start_s;
  w.last = std::max(p.driver_invoke_latency_s, roots / rate) + p.worker_start_s;
  // A generation-g node invokes its children serially; the last child then
  // pays its own container start.
  for (size_t g = 1; g < depth; ++g) {
    if (fanout[g] == 0) continue;
    w.last += static_cast<double>(fanout[g]) * p.worker_invoke_latency_s +
              p.worker_start_s;
  }
  return w;
}

}  // namespace

double TreeAllRunningTime(const std::vector<uint32_t>& fanout,
                          uint32_t workers,
                          const InvocationTreeParams& p) {
  return TreeWindow(fanout, workers, p).last;
}

double TreeStartSkew(const std::vector<uint32_t>& fanout, uint32_t workers,
                     const InvocationTreeParams& p) {
  const TreeStartWindow w = TreeWindow(fanout, workers, p);
  return std::max(0.0, w.last - w.first);
}

}  // namespace lambada::models
