#include "cloud/queue_service.h"

#include <algorithm>

namespace lambada::cloud {

QueueService::QueueService(sim::Simulator* sim, CostLedger* ledger,
                           const QueueServiceConfig& config)
    : sim_(sim), ledger_(ledger), config_(config) {}

Status QueueService::CreateQueue(const std::string& name) {
  if (name.empty()) return Status::Invalid("empty queue name");
  queues_.try_emplace(name);
  return Status::OK();
}

QueueService::Queue* QueueService::FindQueue(const std::string& name) {
  auto it = queues_.find(name);
  return it == queues_.end() ? nullptr : &it->second;
}

sim::Async<Status> QueueService::Send(NetContext ctx, std::string queue,
                                      std::string body) {
  Queue* q = FindQueue(queue);
  if (q == nullptr) co_return Status::NotFound("no such queue: " + queue);
  if (body.size() > config_.max_message_bytes) {
    co_return Status::Invalid("SQS message exceeds 256 KiB limit");
  }
  double latency = ctx.rng->Lognormal(config_.request_latency_median_s,
                                      config_.request_latency_sigma);
  co_await sim::Sleep(sim_, latency);
  ledger_->AddSqsRequest();
  if (ctx.attribution != nullptr) ctx.attribution->AddSqsRequest();
  q->messages.push_back(std::move(body));
  co_return Status::OK();
}

sim::Async<Result<std::vector<std::string>>> QueueService::Receive(
    NetContext ctx, std::string queue, int max_messages,
    double wait_time_s) {
  Queue* q = FindQueue(queue);
  if (q == nullptr) co_return Status::NotFound("no such queue: " + queue);
  double latency = ctx.rng->Lognormal(config_.request_latency_median_s,
                                      config_.request_latency_sigma);
  co_await sim::Sleep(sim_, latency);
  ledger_->AddSqsRequest();
  if (ctx.attribution != nullptr) ctx.attribution->AddSqsRequest();
  max_messages = std::min(max_messages, config_.max_receive_batch);
  double deadline = sim_->Now() + wait_time_s;
  while (q->messages.empty() && sim_->Now() < deadline) {
    // Long poll: re-check every 50 ms until a message lands or the
    // deadline passes.
    co_await sim::Sleep(sim_, std::min(0.05, deadline - sim_->Now()));
  }
  std::vector<std::string> out;
  while (!q->messages.empty() &&
         out.size() < static_cast<size_t>(max_messages)) {
    out.push_back(std::move(q->messages.front()));
    q->messages.pop_front();
  }
  co_return out;
}

size_t QueueService::DepthDirect(const std::string& name) const {
  auto it = queues_.find(name);
  return it == queues_.end() ? 0 : it->second.messages.size();
}

}  // namespace lambada::cloud
