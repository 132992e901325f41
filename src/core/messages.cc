#include "core/messages.h"

#include "core/invocation_tree.h"

namespace lambada::core {

namespace {

void PutFileRefs(BinaryWriter* w, const std::vector<engine::FileRef>& v) {
  w->PutVarint(v.size());
  for (const auto& f : v) {
    w->PutString(f.bucket);
    w->PutString(f.key);
  }
}

Result<std::vector<engine::FileRef>> GetFileRefs(BinaryReader* r) {
  ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 1000000) return Status::IOError("implausible file count");
  std::vector<engine::FileRef> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    engine::FileRef f;
    ASSIGN_OR_RETURN(f.bucket, r->GetString());
    ASSIGN_OR_RETURN(f.key, r->GetString());
    v.push_back(std::move(f));
  }
  return v;
}

/// Structural validation of a parsed tree section: a payload must carry
/// the inputs of exactly the ids its range claims beyond its own, in id
/// order, so the descendant cap bounds every range; the range itself must
/// obey TreeChildren's rules (inside the fleet, within its generation's
/// capacity and branching bound), the ones every invoker applies. Anything
/// else is a typed error, never a fleet of overlapping invocations.
Status ValidateTree(const InvocationPayload& p) {
  const TreeAssignment& t = p.tree;
  const uint32_t self = p.self.worker_id;
  if (t.subtree_end > self &&
      t.descendants.size() != t.subtree_end - self - 1) {
    return Status::Invalid(std::to_string(t.descendants.size()) +
                           " descendant inputs for a range of " +
                           std::to_string(t.subtree_end - self) + " ids");
  }
  for (size_t i = 0; i < t.descendants.size(); ++i) {
    if (t.descendants[i].worker_id != self + 1 + i) {
      return Status::Invalid("descendant input " + std::to_string(i) +
                             " is for worker " +
                             std::to_string(t.descendants[i].worker_id) +
                             ", not " + std::to_string(self + 1 + i));
    }
  }
  TreePlan plan;
  plan.workers = p.total_workers;
  plan.fanout = t.fanout;
  TreeNode node;
  node.begin = self;
  node.end = t.subtree_end;
  node.generation = t.generation;
  return TreeChildren(plan, node).status();
}

}  // namespace

void WorkerInput::Serialize(BinaryWriter* w) const {
  w->PutU32(worker_id);
  PutFileRefs(w, files);
  PutFileRefs(w, build_files);
  w->PutVarint(build_counts.size());
  for (uint32_t n : build_counts) w->PutU32(n);
  w->PutU32(attempt);
}

Result<WorkerInput> WorkerInput::Deserialize(BinaryReader* r) {
  WorkerInput in;
  ASSIGN_OR_RETURN(in.worker_id, r->GetU32());
  ASSIGN_OR_RETURN(in.files, GetFileRefs(r));
  ASSIGN_OR_RETURN(in.build_files, GetFileRefs(r));
  ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 10000) return Status::IOError("implausible build_counts");
  in.build_counts.reserve(n);
  uint64_t covered = 0;
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(uint32_t c, r->GetU32());
    in.build_counts.push_back(c);
    covered += c;
  }
  if (covered != in.build_files.size()) {
    return Status::Invalid("build_counts sum to " + std::to_string(covered) +
                           ", not the " +
                           std::to_string(in.build_files.size()) +
                           " build files");
  }
  ASSIGN_OR_RETURN(in.attempt, r->GetU32());
  return in;
}

std::string InvocationPayload::Serialize() const {
  BinaryWriter w;
  w.PutString(query_id);
  w.PutU32(total_workers);
  w.PutString(plan_bucket);
  w.PutString(plan_key);
  w.PutString(result_queue);
  self.Serialize(&w);
  w.PutF64(data_scale);
  w.PutU8(hedge_gets ? 1 : 0);
  w.PutU32(tree.subtree_end);
  w.PutU32(tree.generation);
  w.PutVarint(tree.fanout.size());
  for (uint32_t f : tree.fanout) w.PutU32(f);
  w.PutVarint(tree.descendants.size());
  for (const auto& d : tree.descendants) d.Serialize(&w);
  auto bytes = w.Take();
  return std::string(bytes.begin(), bytes.end());
}

Result<InvocationPayload> InvocationPayload::Parse(const std::string& bytes) {
  BinaryReader r(reinterpret_cast<const uint8_t*>(bytes.data()),
                 bytes.size());
  InvocationPayload p;
  ASSIGN_OR_RETURN(p.query_id, r.GetString());
  ASSIGN_OR_RETURN(p.total_workers, r.GetU32());
  ASSIGN_OR_RETURN(p.plan_bucket, r.GetString());
  ASSIGN_OR_RETURN(p.plan_key, r.GetString());
  ASSIGN_OR_RETURN(p.result_queue, r.GetString());
  ASSIGN_OR_RETURN(p.self, WorkerInput::Deserialize(&r));
  ASSIGN_OR_RETURN(p.data_scale, r.GetF64());
  ASSIGN_OR_RETURN(uint8_t hedge, r.GetU8());
  p.hedge_gets = hedge != 0;
  ASSIGN_OR_RETURN(p.tree.subtree_end, r.GetU32());
  ASSIGN_OR_RETURN(p.tree.generation, r.GetU32());
  ASSIGN_OR_RETURN(uint64_t nf, r.GetVarint());
  if (nf == 0 || nf > 16) return Status::IOError("implausible tree depth");
  p.tree.fanout.reserve(nf);
  for (uint64_t i = 0; i < nf; ++i) {
    ASSIGN_OR_RETURN(uint32_t f, r.GetU32());
    p.tree.fanout.push_back(f);
  }
  ASSIGN_OR_RETURN(uint64_t nd, r.GetVarint());
  if (nd > 100000) return Status::IOError("implausible descendant count");
  for (uint64_t i = 0; i < nd; ++i) {
    ASSIGN_OR_RETURN(WorkerInput in, WorkerInput::Deserialize(&r));
    p.tree.descendants.push_back(std::move(in));
  }
  if (r.remaining() != 0) return Status::IOError("payload trailing bytes");
  RETURN_NOT_OK(ValidateTree(p));
  return p;
}

std::string ResultMessage::Serialize() const {
  BinaryWriter w;
  w.PutString(query_id);
  w.PutU32(worker_id);
  w.PutU8(static_cast<uint8_t>(status_code));
  w.PutString(status_message);
  metrics.Serialize(&w);
  w.PutBytes(inline_result);
  w.PutString(spill_bucket);
  w.PutString(spill_key);
  w.PutU32(attempt);
  auto bytes = w.Take();
  return std::string(bytes.begin(), bytes.end());
}

Result<ResultMessage> ResultMessage::Parse(const std::string& bytes) {
  BinaryReader r(reinterpret_cast<const uint8_t*>(bytes.data()),
                 bytes.size());
  ResultMessage m;
  ASSIGN_OR_RETURN(m.query_id, r.GetString());
  ASSIGN_OR_RETURN(m.worker_id, r.GetU32());
  ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::IOError("bad status code in result");
  }
  m.status_code = static_cast<StatusCode>(code);
  ASSIGN_OR_RETURN(m.status_message, r.GetString());
  ASSIGN_OR_RETURN(m.metrics, obs::MetricsRegistry::Deserialize(&r));
  ASSIGN_OR_RETURN(m.inline_result, r.GetBytes());
  ASSIGN_OR_RETURN(m.spill_bucket, r.GetString());
  ASSIGN_OR_RETURN(m.spill_key, r.GetString());
  ASSIGN_OR_RETURN(m.attempt, r.GetU32());
  if (r.remaining() != 0) return Status::IOError("result trailing bytes");
  return m;
}

}  // namespace lambada::core
