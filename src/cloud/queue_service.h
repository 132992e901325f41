#ifndef LAMBADA_CLOUD_QUEUE_SERVICE_H_
#define LAMBADA_CLOUD_QUEUE_SERVICE_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cloud/cost_ledger.h"
#include "cloud/net.h"
#include "common/status.h"
#include "sim/async.h"
#include "sim/simulator.h"

namespace lambada::cloud {

/// Simulated Amazon SQS. Workers post their (small) results and error
/// reports here; the driver polls until it has heard from every worker
/// (Section 3.3).
struct QueueServiceConfig {
  double request_latency_median_s = 0.010;
  double request_latency_sigma = 0.3;
  /// SQS rejects message bodies larger than 256 KiB.
  size_t max_message_bytes = 256 * 1024;
  /// Maximum messages returned per receive call (SQS: 10).
  int max_receive_batch = 10;
};

class QueueService {
 public:
  QueueService(sim::Simulator* sim, CostLedger* ledger,
               const QueueServiceConfig& config = {});

  /// Creates a queue. Idempotent; free control-plane operation.
  Status CreateQueue(const std::string& name);

  /// Sends one message. Fails with InvalidArgument beyond the size limit.
  sim::Async<Status> Send(NetContext ctx, std::string queue,
                          std::string body);

  /// Long-poll receive: waits up to `wait_time_s` for at least one message,
  /// returns up to `max_messages` (capped at the service batch limit).
  /// Returns an empty vector on timeout. Each call is one billed request.
  sim::Async<Result<std::vector<std::string>>> Receive(
      NetContext ctx, std::string queue, int max_messages,
      double wait_time_s);

  /// Number of messages currently in the queue (host-side inspection).
  size_t DepthDirect(const std::string& name) const;

 private:
  struct Queue {
    std::deque<std::string> messages;
  };

  Queue* FindQueue(const std::string& name);

  sim::Simulator* sim_;
  CostLedger* ledger_;
  QueueServiceConfig config_;
  std::map<std::string, Queue> queues_;
};

}  // namespace lambada::cloud

#endif  // LAMBADA_CLOUD_QUEUE_SERVICE_H_
