#include "core/session_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace lambada::core {

QueryService::QueryService(cloud::Cloud* cloud, ServingOptions options)
    : cloud_(cloud),
      options_(std::move(options)),
      meta_cache_(std::make_unique<cloud::MetadataCache>(
          &cloud_->ddb(), &cloud_->s3(), options_.meta_table, &metrics_)),
      scan_broker_(std::make_unique<cloud::SharedScanBroker>(&cloud_->sim(),
                                                             &metrics_)) {
  // Workers reach the shared layers host-side, like the tracer and the
  // fault injector: nothing serving-related ever rides in a payload.
  cloud_->faas().set_serving(meta_cache_.get(), scan_broker_.get());

  DriverOptions dopts;
  dopts.serving_mode = true;
  dopts.function_prefix = options_.function_prefix;
  dopts.result_queue = options_.result_queue;
  dopts.meta_cache = meta_cache_.get();
  driver_ = std::make_unique<Driver>(cloud_, dopts);
}

Status QueryService::AddTenant(TenantOptions tenant) {
  if (tenant.id.empty()) {
    return Status::Invalid("tenant id must be non-empty");
  }
  if (tenants_.count(tenant.id) != 0) {
    return Status::Invalid("tenant '" + tenant.id + "' already registered");
  }
  Tenant t;
  t.opts = std::move(tenant);
  tenants_.emplace(t.opts.id, std::move(t));
  return Status::OK();
}

TenantUsage QueryService::Usage(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantUsage{} : it->second.usage;
}

bool QueryService::HasCapacity(const Tenant& t) const {
  return running_ < options_.max_concurrent &&
         t.usage.running < t.opts.max_concurrent;
}

void QueryService::Record(const std::string& tenant, uint64_t ticket,
                          const char* outcome, double submitted_s) {
  AdmissionEvent ev;
  ev.tenant = tenant;
  ev.ticket = ticket;
  ev.outcome = outcome;
  ev.submitted_s = submitted_s;
  ev.decided_s = cloud_->sim().Now();
  admission_log_.push_back(std::move(ev));
}

void QueryService::AdmitFromQueue() {
  // Oldest ticket first; a waiter whose tenant is saturated is skipped so
  // it cannot head-of-line-block other tenants. The scan order is a pure
  // function of ticket order and capacity state, hence deterministic.
  for (auto it = queue_.begin();
       it != queue_.end() && running_ < options_.max_concurrent;) {
    const std::shared_ptr<Waiter>& w = *it;
    if (w->expired) {
      it = queue_.erase(it);
      continue;
    }
    Tenant& t = tenants_.at(w->tenant);
    if (!HasCapacity(t)) {
      ++it;
      continue;
    }
    w->admitted = true;
    ++running_;
    ++t.usage.running;
    --t.usage.queued;
    Record(w->tenant, w->ticket, "admitted", w->submitted_s);
    w->event.Set();
    it = queue_.erase(it);
  }
}

sim::Async<Result<QueryReport>> QueryService::Submit(std::string tenant,
                                                     Query query,
                                                     RunOptions run_options) {
  auto sub = std::make_shared<Submission>(Submission{
      std::move(tenant), std::move(query), std::move(run_options)});
  return SubmitImpl(std::move(sub));
}

sim::Async<Result<QueryReport>> QueryService::SubmitImpl(
    std::shared_ptr<Submission> sub) {
  const std::string& tenant = sub->tenant;
  const double submitted_s = cloud_->sim().Now();
  const uint64_t ticket = next_ticket_++;
  auto tenant_it = tenants_.find(tenant);
  if (tenant_it == tenants_.end()) {
    Record(tenant, ticket, "rejected_unknown", submitted_s);
    metrics_.Add(obs::Metric::kRejectedQueries, 1);
    co_return Status::Invalid("unknown tenant '" + tenant + "'");
  }
  Tenant& t = tenant_it->second;

  if (t.usage.spent_usd >= t.opts.budget_usd) {
    ++t.usage.rejected;
    Record(tenant, ticket, "rejected_budget", submitted_s);
    metrics_.Add(obs::Metric::kRejectedQueries, 1);
    co_return Status::ResourceExhausted(
        "tenant '" + tenant + "' exhausted its cost budget ($" +
        std::to_string(t.usage.spent_usd) + " spent of $" +
        std::to_string(t.opts.budget_usd) + ")");
  }

  if (HasCapacity(t) && queue_.empty()) {
    ++running_;
    ++t.usage.running;
    Record(tenant, ticket, "admitted", submitted_s);
  } else {
    if (t.usage.queued >= t.opts.max_queue_depth) {
      ++t.usage.rejected;
      Record(tenant, ticket, "rejected_queue", submitted_s);
      metrics_.Add(obs::Metric::kRejectedQueries, 1);
      co_return Status::ResourceExhausted(
          "tenant '" + tenant + "' admission queue is full (" +
          std::to_string(t.usage.queued) + " waiting)");
    }
    auto waiter = std::make_shared<Waiter>(&cloud_->sim());
    waiter->tenant = tenant;
    waiter->ticket = ticket;
    waiter->submitted_s = submitted_s;
    queue_.push_back(waiter);
    ++t.usage.queued;
    metrics_.Add(obs::Metric::kQueuedQueries, 1);
    // Deadline watchdog. It owns a share of the waiter, so it stays safe
    // even when the Submit frame has long since been destroyed.
    sim::Spawn([](sim::Simulator* sim, std::shared_ptr<Waiter> w,
                  double deadline_s) -> sim::Async<void> {
      co_await sim::Sleep(sim, deadline_s);
      if (w->admitted || w->expired) co_return;
      w->expired = true;
      w->event.Set();
    }(&cloud_->sim(), waiter, t.opts.queue_deadline_s));
    co_await waiter->event.Wait();
    if (!waiter->admitted) {
      // Expired. AdmitFromQueue drops expired waiters it encounters, but
      // remove eagerly so the queue never reports phantom depth.
      queue_.erase(std::remove(queue_.begin(), queue_.end(), waiter),
                   queue_.end());
      --t.usage.queued;
      ++t.usage.rejected;
      Record(tenant, ticket, "expired", submitted_s);
      metrics_.Add(obs::Metric::kRejectedQueries, 1);
      co_return Status::DeadlineExceeded(
          "tenant '" + tenant + "' submission waited " +
          std::to_string(t.opts.queue_deadline_s) +
          "s in the admission queue");
    }
  }

  // ---- Run, with every charge mirrored into a per-query ledger. ----
  cloud::CostLedger& attribution = ledgers_.emplace_back();
  RunOptions ro = sub->run_options;
  ro.attribution = &attribution;
  auto report = co_await driver_->Run(sub->query, ro);

  --running_;
  --t.usage.running;
  const double cost_usd =
      attribution.Snapshot().TotalUsd(cloud_->pricing());
  t.usage.spent_usd += cost_usd;
  if (report.ok()) {
    ++t.usage.served;
    metrics_.Add(obs::Metric::kServedQueries, 1);
  }
  AdmitFromQueue();
  co_return report;
}

}  // namespace lambada::core
