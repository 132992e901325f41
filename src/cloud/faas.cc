#include "cloud/faas.h"

#include <algorithm>
#include <cmath>

#include "cloud/pricing.h"
#include "common/units.h"

namespace lambada::cloud {

namespace {

/// Client-side Invoke retry policy (InvokeWithRetries): retries after the
/// first failed call, and the backoff before the first retry.
constexpr int kInvokeRetries = 8;
constexpr double kInvokeBackoffS = 0.05;

/// Degrades a NIC profile by the straggler factor of a worker's fate.
sim::SharedLink::Config ScaleNic(sim::SharedLink::Config c, double factor) {
  c.sustained_bps *= factor;
  c.peak_bps *= factor;
  c.per_conn_bps *= factor;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerEnv
// ---------------------------------------------------------------------------

WorkerEnv::WorkerEnv(Services services, std::string function_name,
                     int memory_mib, uint64_t seed, bool cold,
                     WorkerFate fate)
    : services_(services),
      function_name_(std::move(function_name)),
      memory_mib_(memory_mib),
      cold_(cold),
      rng_(seed),
      fate_(fate),
      // A straggler fate shrinks the *actual* CPU share and NIC of this
      // host; cpu_share() keeps reporting the nominal value (the worker
      // does not know it landed on a degraded host).
      cpu_(services.sim, memory_mib / 1792.0 * fate.cpu_factor,
           /*per_job_cap=*/1.0),
      nic_(services.sim,
           ScaleNic(WorkerNicConfig(memory_mib), fate.net_factor)) {}

InvokerProfile WorkerEnv::invoker_profile() {
  // Workers invoke within their own region; no client-side cap is needed
  // (Table 1: "Intra-region rate").
  InvokerProfile p;
  p.latency_median_s = 0.012;
  p.latency_sigma = 0.15;
  p.client_bucket = nullptr;
  return p;
}

int64_t WorkerEnv::memory_budget_bytes() const {
  // The event handler reserves a slice of the function's memory for the
  // language runtime and starts the engine with the remainder
  // (Section 3.3: "a memory limit slightly lower than that of the
  // serverless function").
  constexpr int64_t kRuntimeOverheadBytes = 96LL * kMiB;
  return static_cast<int64_t>(memory_mib_) * kMiB - kRuntimeOverheadBytes;
}

Status WorkerEnv::ReserveMemory(int64_t bytes) {
  if (memory_used_ + bytes > memory_budget_bytes()) {
    return Status::OutOfMemory(
        "worker exceeded memory budget: " + FormatBytes(memory_used_ + bytes) +
        " > " + FormatBytes(memory_budget_bytes()));
  }
  memory_used_ += bytes;
  return Status::OK();
}

void WorkerEnv::ReleaseMemory(int64_t bytes) {
  memory_used_ -= bytes;
  LAMBADA_DCHECK(memory_used_ >= 0);
}

// ---------------------------------------------------------------------------
// FaasService
// ---------------------------------------------------------------------------

FaasService::FaasService(sim::Simulator* sim, CostLedger* ledger,
                         Services services, const FaasConfig& config)
    : sim_(sim),
      ledger_(ledger),
      services_(services),
      config_(config),
      api_rate_(config.concurrency_limit * config.invocation_rate_multiple,
                config.concurrency_limit * config.invocation_rate_multiple) {
  services_.faas = this;
}

Status FaasService::CreateFunction(FunctionConfig config) {
  if (config.name.empty()) return Status::Invalid("empty function name");
  if (config.memory_mib < 128 || config.memory_mib > 3008) {
    return Status::Invalid("function memory must be in [128, 3008] MiB");
  }
  if (!config.handler) return Status::Invalid("function has no handler");
  // Idempotent: re-creating an existing function keeps its warm pool and,
  // crucially, never swaps the handler out from under running workers.
  if (functions_.find(config.name) != functions_.end()) {
    return Status::OK();
  }
  // Copy the key first: the RHS (which moves `config`) is sequenced
  // before the subscript expression in an assignment.
  std::string name = config.name;
  functions_[name] = Function{std::move(config), {}};
  return Status::OK();
}

void FaasService::ResetWarmPool(const std::string& name) {
  auto it = functions_.find(name);
  if (it != functions_.end()) it->second.warm_pool.clear();
}

sim::Async<Status> FaasService::Invoke(InvokerProfile profile,
                                       Rng* caller_rng, std::string function,
                                       std::string payload,
                                       CostLedger* attribution) {
  // Client-side throughput cap (WAN-bound drivers).
  double client_delay = 0.0;
  if (profile.client_bucket != nullptr) {
    client_delay = profile.client_bucket->ReserveDelay(sim_->Now());
  }
  double latency =
      caller_rng->Lognormal(profile.latency_median_s, profile.latency_sigma);
  co_await sim::Sleep(sim_, client_delay + latency);

  auto it = functions_.find(function);
  if (it == functions_.end()) {
    co_return Status::NotFound("no such function: " + function);
  }
  Function* fn = &it->second;
  if (payload.size() > config_.max_payload_bytes) {
    co_return Status::Invalid("invocation payload exceeds 256 KB");
  }
  if (fault_ != nullptr) {
    // Injected control-plane failure; retriable, like a real 500 from
    // the Invoke API.
    Status injected = fault_->InjectRequestFault(FaultOp::kInvoke);
    if (!injected.ok()) {
      if (tracer_ != nullptr) {
        tracer_->Instant(tracer_->root(), "fault.invoke_error");
      }
      co_return injected;
    }
  }
  // Account-wide invocation-rate limit.
  if (api_rate_.CurrentDelay(sim_->Now()) > 0.5) {
    co_return Status::ResourceExhausted("Rate exceeded (invocation rate)");
  }
  api_rate_.ReserveDelay(sim_->Now());
  // Concurrency limit.
  if (active_ >= config_.concurrency_limit) {
    co_return Status::ResourceExhausted(
        "TooManyRequestsException: concurrency limit reached");
  }

  ++active_;
  ledger_->AddInvocation();
  if (attribution != nullptr) attribution->AddInvocation();
  // Warm container available?
  bool cold = true;
  while (!fn->warm_pool.empty()) {
    double expiry = fn->warm_pool.front();
    fn->warm_pool.pop_front();
    if (expiry >= sim_->Now()) {
      cold = false;
      break;
    }
  }
  double initiated = sim_->Now() - client_delay - latency;
  sim::Spawn(RunWorker(fn, std::move(payload), cold, initiated, sim_->Now(),
                       attribution));
  co_return Status::OK();
}

sim::Async<Status> FaasService::InvokeWithRetries(InvokerProfile profile,
                                                  Rng* caller_rng,
                                                  std::string function,
                                                  std::string payload,
                                                  CostLedger* attribution) {
  double backoff = kInvokeBackoffS;
  for (int attempt = 0;; ++attempt) {
    Status s =
        co_await Invoke(profile, caller_rng, function, payload, attribution);
    if (s.ok() || !s.IsRetriable() || attempt >= kInvokeRetries) {
      co_return s;
    }
    co_await sim::Sleep(sim_, backoff * (0.5 + caller_rng->NextDouble()));
    backoff *= 2;
  }
}

sim::Async<void> FaasService::RunWorker(Function* fn, std::string payload,
                                        bool cold, double invoke_initiated,
                                        double accepted_at,
                                        CostLedger* attribution) {
  const FunctionConfig& cfg = fn->config;
  double start_latency =
      cold ? Rng(next_worker_seed_++)
                 .Lognormal(config_.cold_start_median_s,
                            config_.cold_start_sigma)
           : Rng(next_worker_seed_++)
                 .Lognormal(config_.warm_start_median_s,
                            config_.warm_start_sigma);
  co_await sim::Sleep(sim_, start_latency);

  WorkerFate fate;
  if (fault_ != nullptr) fate = fault_->DrawWorkerFate();
  auto env = std::make_unique<WorkerEnv>(services_, cfg.name, cfg.memory_mib,
                                         next_worker_seed_++, cold, fate);
  env->set_tracer(tracer_);
  env->set_fault_injector(fault_);
  env->attribution = attribution;
  env->meta_cache = meta_cache_;
  env->scan_broker = scan_broker_;
  env->metrics().invoke_initiated = invoke_initiated;
  env->metrics().invoke_accepted = accepted_at;
  env->metrics().handler_start = sim_->Now();
  env->metrics().cold_start = cold;

  double billed_from = sim_->Now();
  if (cold && config_.cold_init_cpu_s > 0) {
    // Loading the dependency layer / execution framework.
    co_await env->Compute(config_.cold_init_cpu_s);
  }
  Status handler_status = co_await cfg.handler(*env, std::move(payload));
  if (!handler_status.ok()) {
    ++failed_handlers_;
    LAMBADA_LOG(Warning) << "worker handler failed: "
                         << handler_status.ToString();
  }
  env->metrics().handler_end = sim_->Now();

  // Billing: duration in 100 ms increments times configured memory,
  // capped at the function timeout.
  double duration = std::min(sim_->Now() - billed_from, cfg.timeout_s);
  double billed = std::ceil(duration / kLambdaBillingQuantumSeconds) *
                  kLambdaBillingQuantumSeconds;
  ledger_->AddLambda(billed * cfg.memory_mib / 1024.0);
  if (attribution != nullptr) {
    attribution->AddLambda(billed * cfg.memory_mib / 1024.0);
  }

  // Hedge losers may still be in flight against this environment's NIC
  // and RNG (detached request coroutines); let them drain before the
  // environment dies. Billing was measured above, at handler end.
  while (env->inflight_requests() > 0) {
    co_await sim::Sleep(sim_, 0.001);
  }

  completed_metrics_.push_back(env->metrics());
  --active_;
  fn->warm_pool.push_back(sim_->Now() + config_.warm_container_ttl_s);
}

}  // namespace lambada::cloud
