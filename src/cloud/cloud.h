#ifndef LAMBADA_CLOUD_CLOUD_H_
#define LAMBADA_CLOUD_CLOUD_H_

#include <memory>
#include <string>

#include "cloud/cost_ledger.h"
#include "cloud/faas.h"
#include "cloud/fault.h"
#include "cloud/kv_store.h"
#include "cloud/object_store.h"
#include "cloud/pricing.h"
#include "cloud/queue_service.h"
#include "cloud/regions.h"
#include "sim/simulator.h"

namespace lambada::cloud {

/// Configuration of a simulated cloud deployment.
struct CloudConfig {
  std::string region = "eu";
  int concurrency_limit = 1000;
  uint64_t seed = 42;
  ObjectStoreConfig s3;
  QueueServiceConfig sqs;
  KeyValueStoreConfig ddb;
  FaasConfig faas;
  Pricing pricing;
  /// Chaos schedule for this region; disabled by default (and a disabled
  /// plan draws no randomness, leaving fault-free runs bit-identical).
  FaultPlan fault;
};

/// One simulated AWS region with all serverless services wired together,
/// plus the driver-side resources (uplink NIC, invocation thread pool cap,
/// randomness). This is the "world" that experiments instantiate.
class Cloud {
 public:
  explicit Cloud(const CloudConfig& config = {})
      : config_(config),
        region_(GetRegion(config.region)),
        s3_(&sim_, &ledger_, config.s3),
        sqs_(&sim_, &ledger_, config.sqs),
        ddb_(&sim_, &ledger_, config.ddb),
        faas_(&sim_, &ledger_, MakeServices(), MakeFaasConfig(config)),
        driver_nic_(&sim_, DriverNicConfig()),
        driver_invoke_bucket_(region_.remote_client_rate_per_s,
                              region_.remote_client_rate_per_s / 4),
        driver_rng_(config.seed),
        fault_(config.fault) {
    s3_.set_fault_injector(&fault_);
    faas_.set_fault_injector(&fault_);
  }

  sim::Simulator& sim() { return sim_; }
  CostLedger& ledger() { return ledger_; }
  ObjectStore& s3() { return s3_; }
  QueueService& sqs() { return sqs_; }
  KeyValueStore& ddb() { return ddb_; }
  FaasService& faas() { return faas_; }
  const Pricing& pricing() const { return config_.pricing; }
  const RegionProfile& region() const { return region_; }
  const CloudConfig& config() const { return config_; }

  /// Services bundle as seen from inside the region.
  Services services() { return MakeServices(); }

  /// Network context of the driver machine. Driver-side request events
  /// annotate the trace's root span.
  NetContext driver_net() {
    NetContext ctx{&driver_nic_, &driver_rng_, 1.0};
    ctx.tracer = tracer_;
    ctx.span = tracer_ != nullptr ? tracer_->root() : 0;
    return ctx;
  }

  /// Invoker profile of the driver: WAN latency to the region plus the
  /// client-side rate cap of Table 1.
  InvokerProfile driver_invoker_profile() {
    InvokerProfile p;
    p.latency_median_s = region_.remote_invoke_latency_s;
    p.latency_sigma = 0.10;
    p.client_bucket = &driver_invoke_bucket_;
    return p;
  }

  Rng& driver_rng() { return driver_rng_; }

  /// Hands out query ids "q0", "q1", ... in call order. The keys a query
  /// id names (its plan objects, its results, its exchange files) are
  /// per deployment, so every driver on this Cloud draws from here.
  std::string NextQueryId() { return "q" + std::to_string(next_query_id_++); }

  /// The region's fault injector (executes config().fault).
  FaultInjector& fault() { return fault_; }

  /// Installs (or clears, with null) the query-scoped tracer. Wired like
  /// the fault injector: host-side, reaching workers through FaasService,
  /// so enabling tracing never changes payload bytes or request schedules.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    faas_.set_tracer(tracer);
  }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  Services MakeServices() {
    Services s;
    s.sim = &sim_;
    s.s3 = &s3_;
    s.sqs = &sqs_;
    s.ddb = &ddb_;
    s.faas = &faas_;  // Overwritten by FaasService's own constructor.
    s.ledger = &ledger_;
    return s;
  }

  static FaasConfig MakeFaasConfig(const CloudConfig& c) {
    FaasConfig f = c.faas;
    f.concurrency_limit = c.concurrency_limit;
    return f;
  }

  CloudConfig config_;
  RegionProfile region_;
  sim::Simulator sim_;
  CostLedger ledger_;
  ObjectStore s3_;
  QueueService sqs_;
  KeyValueStore ddb_;
  FaasService faas_;
  sim::SharedLink driver_nic_;
  sim::TokenBucket driver_invoke_bucket_;
  Rng driver_rng_;
  FaultInjector fault_;
  obs::Tracer* tracer_ = nullptr;
  int64_t next_query_id_ = 0;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_CLOUD_H_
