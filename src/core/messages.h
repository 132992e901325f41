#ifndef LAMBADA_CORE_MESSAGES_H_
#define LAMBADA_CORE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "engine/scan.h"
#include "obs/metrics.h"

namespace lambada::core {

// The binary formats below follow the serialization contract stated in
// core/plan.h: driver and workers always run the same build, so every
// message has exactly one format; tags are discriminators; parsing is
// strict — readers bounds-check every tag and count they consume, validate
// cross-field invariants, and reject trailing bytes.

/// The work assignment of one worker: its id and input files. Everything
/// that differs per worker MUST live here — invokers build their
/// children's payloads from their own (core/invocation_tree.cc), swapping
/// in only the child's WorkerInput.
struct WorkerInput {
  uint32_t worker_id = 0;
  std::vector<engine::FileRef> files;
  /// Build-relation files of a join fragment (often empty: the build
  /// relation usually has fewer files than workers): the concatenation of
  /// every join's list, in build-ordinal order.
  std::vector<engine::FileRef> build_files;
  /// Slice lengths of `build_files`, one per join of the fragment (none
  /// for a single-table fragment). Parsing rejects counts that do not sum
  /// to the file list.
  std::vector<uint32_t> build_counts;
  /// Which invocation attempt this is for `worker_id` (0 = first). The
  /// driver bumps it when it speculatively re-invokes a straggler or
  /// re-invokes a crashed worker; the worker echoes it in ResultMessage so
  /// the driver can dedup at-least-once deliveries by (worker_id, attempt).
  uint32_t attempt = 0;

  void Serialize(BinaryWriter* w) const;
  static Result<WorkerInput> Deserialize(BinaryReader* r);
};

/// A worker's place in the invocation tree (core/invocation_tree.h): its
/// claimed contiguous ID range, its generation, the tree shape, and the
/// inputs of the range's other workers (its descendants) — everything it
/// needs to derive and invoke its child subtrees locally (Section 4.2: an
/// invoker gets the parameters of the workers it starts in its payload).
struct TreeAssignment {
  /// Exclusive end of this worker's claimed range [self.worker_id, end).
  uint32_t subtree_end = 0;
  /// 1-based generation; the driver invokes generation 1.
  uint32_t generation = 1;
  /// Tree shape (TreePlan::fanout); size() is the depth.
  std::vector<uint32_t> fanout;
  /// The WorkerInputs of ids [self.worker_id + 1, subtree_end), in id
  /// order: parsing rejects a range the list does not cover exactly, so a
  /// payload never claims more workers than it carries.
  std::vector<WorkerInput> descendants;
};

/// The invocation payload of a serverless worker (Section 3.3). The plan
/// fragment itself lives in S3 (payloads are limited to 256 KB); the
/// payload carries the pointer, this worker's inputs, and its subtree of
/// the invocation tree (Section 4.2), which it starts before its own work.
struct InvocationPayload {
  std::string query_id;
  uint32_t total_workers = 1;
  std::string plan_bucket;
  std::string plan_key;
  std::string result_queue;
  WorkerInput self;
  /// Virtual-scaling factor applied to modeled data sizes and CPU work
  /// (see DESIGN.md); 1.0 outside scaled experiments.
  double data_scale = 1.0;
  /// Whether workers should hedge slow object-store GETs (RunOptions
  /// knob, threaded through the payload so the whole fleet agrees).
  bool hedge_gets = false;
  TreeAssignment tree;

  std::string Serialize() const;
  static Result<InvocationPayload> Parse(const std::string& bytes);
};

/// The message a worker posts to the result queue when it finishes or
/// fails (Section 3.3). Large results spill to S3 and are referenced by
/// pointer (SQS messages are limited to 256 KiB).
struct ResultMessage {
  std::string query_id;
  uint32_t worker_id = 0;
  /// Status of the worker's execution engine.
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  /// The attempt's metrics registry (cloud::WorkerEnv::registry()), keyed
  /// by the stable ids of src/obs/metrics.h; the id is the wire tag of the
  /// registry's sparse (id, value) encoding. Byte counters hold MODELED
  /// bytes (virtual scaling applied), the units of the latencies and costs
  /// beside them.
  obs::MetricsRegistry metrics;
  /// Inline partial result (serialized chunk), or empty if spilled.
  std::vector<uint8_t> inline_result;
  /// Set if the result was spilled to S3.
  std::string spill_bucket;
  std::string spill_key;
  /// Echo of WorkerInput::attempt; the driver keys its first-result-wins
  /// dedup on (worker_id, attempt).
  uint32_t attempt = 0;

  std::string Serialize() const;
  static Result<ResultMessage> Parse(const std::string& bytes);
};

}  // namespace lambada::core

#endif  // LAMBADA_CORE_MESSAGES_H_
