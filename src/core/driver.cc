#include "core/driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "cloud/meta_cache.h"
#include "common/glob.h"
#include "core/analyze.h"
#include "core/exchange.h"
#include "core/invocation_tree.h"
#include "core/logical_plan.h"
#include "core/stats_index.h"
#include "core/worker.h"
#include "engine/aggregate.h"
#include "engine/chunk_serde.h"
#include "format/source.h"

namespace lambada::core {

namespace {

/// Concurrent Invoke calls the driver issues (the paper uses 128 threads,
/// Section 4.2).
constexpr int kInvokeThreads = 128;
/// SQS long-poll wait per result receive call.
constexpr double kResultPollWaitS = 1.0;
/// Straggler deadline policy of the mitigation loop (MitigationOptions):
/// the deadline arms once this share of the fleet has reported, and each
/// straggler then gets max(kMinStragglerDeadlineS, kStragglerMultiplier x
/// the time elapsed at that crossing).
constexpr double kStragglerQuantile = 0.5;
constexpr double kStragglerMultiplier = 3.0;
constexpr double kMinStragglerDeadlineS = 5.0;

/// One expanded input glob: the matched files, their virtual (scaled)
/// sizes, and the derived stats-index dataset name.
struct PatternListing {
  std::string bucket;
  std::string key_pattern;
  std::string dataset;
  std::vector<engine::FileRef> files;
  std::map<std::string, int64_t> sizes;
  int64_t total_bytes = 0;
};

sim::Async<Result<PatternListing>> ListPattern(cloud::S3Client* client,
                                               const std::string& pattern,
                                               cloud::MetadataCache* meta) {
  PatternListing out;
  if (!ParseS3Uri(pattern, &out.bucket, &out.key_pattern)) {
    co_return Status::Invalid("bad input pattern: " + pattern);
  }
  const std::string prefix = GlobLiteralPrefix(out.key_pattern);
  Result<std::vector<cloud::ObjectInfo>> listing =
      Status::NotFound("not cached");
  if (meta != nullptr) {
    listing = co_await meta->GetListing(client->ctx(), out.bucket, prefix);
  }
  if (!listing.ok()) {
    listing = co_await client->List(out.bucket, prefix);
    if (!listing.ok()) co_return listing.status();
    if (meta != nullptr) {
      // Best-effort fill; a failed write just means the next query misses.
      co_await meta->PutListing(client->ctx(), out.bucket, prefix, *listing);
    }
  }
  for (const auto& obj : *listing) {
    if (GlobMatch(out.key_pattern, obj.key)) {
      out.files.push_back(engine::FileRef{out.bucket, obj.key});
      out.sizes[obj.key] = obj.size;
      out.total_bytes += obj.size;
    }
  }
  out.dataset = out.bucket + "/" + GlobLiteralPrefix(out.key_pattern);
  co_return out;
}

/// One query's state, shared by the five phases of Driver::Run. Run owns
/// it on its frame; every phase takes it by pointer, never as a braced
/// aggregate prvalue (the GCC 12 rule, core/session_manager.h).
struct QueryRun {
  // ---- Set up by Run.
  cloud::Cloud* cloud = nullptr;
  const DriverOptions* dopts = nullptr;
  const Query* query = nullptr;
  const RunOptions* options = nullptr;
  std::string query_id;
  std::string function;
  std::string result_queue;
  std::string plan_key;  ///< Where the fragment lives in the system bucket.
  obs::Tracer* tr = nullptr;
  cloud::NetContext dnet;
  cloud::S3Client* client = nullptr;
  double t_start = 0;
  // ---- Plan.
  PhysicalQuery physical;
  std::vector<engine::FileRef> files;
  std::map<std::string, PatternListing> build_listings;  // By pattern.
  /// Every worker's leaf payload, the template BranchPayload builds every
  /// payload the driver sends from.
  std::vector<InvocationPayload> payloads;
  TreeOptions topt;
  TreePlan tree;
  // ---- Invoke and collect.
  double t_invoked = 0;
  uint64_t collect_span = 0;
  std::vector<int> attempts;  ///< Per worker, the first included.
  std::vector<double> invoked_at;
  // ---- Filled by the phases (workers, files, tree_depth, the results
  // and their merge, the recovery counters), completed by Run.
  QueryReport report;
};

/// The payload that starts `node`'s whole subtree under `attempt`: the
/// leaf payload of its own worker widened to the node's range in the
/// tree, with the descendants' inputs inline. Every payload the driver
/// sends comes from here: a generation-1 root at attempt 0, or a
/// re-invoked node (a single worker is the size-1 node
/// {w, w+1, generation 1}).
std::string BranchPayload(const QueryRun& q, const TreeNode& node,
                          uint32_t attempt) {
  InvocationPayload p = q.payloads[node.begin];
  p.self.attempt = attempt;
  p.tree.subtree_end = node.end;
  p.tree.generation = node.generation;
  p.tree.fanout = q.tree.fanout;
  for (uint32_t id = node.begin + 1; id < node.end; ++id) {
    p.tree.descendants.push_back(q.payloads[id].self);
  }
  return p.Serialize();
}

/// The most workers one payload may carry under the Invoke limit of
/// `limit` bytes. A payload of n workers is at most n leaf payloads long
/// once each leaf is widened by the deepest tree shape: a descendant adds
/// only its WorkerInput, which is shorter than its leaf payload by more
/// than the few bytes the descendant count grows by.
uint32_t MaxSubtree(const std::vector<InvocationPayload>& leaves,
                    size_t limit) {
  size_t leaf = 1;
  for (const InvocationPayload& p : leaves) {
    leaf = std::max(leaf, p.Serialize().size() +
                              sizeof(uint32_t) * kMaxTreeDepth);
  }
  return static_cast<uint32_t>(std::min<size_t>(
      limit / leaf, std::numeric_limits<uint32_t>::max()));
}

/// One Invoke from the driver machine (its WAN profile and RNG) under the
/// shared retry policy (FaasService::InvokeWithRetries).
sim::Async<Status> InvokeOne(QueryRun* q, std::string payload) {
  const cloud::InvokerProfile profile = q->cloud->driver_invoker_profile();
  return q->cloud->faas().InvokeWithRetries(
      profile, &q->cloud->driver_rng(), q->function, std::move(payload),
      q->options->attribution);
}

/// Re-invokes `node`'s whole subtree under `attempt` through its own
/// invoker, and restarts every member's attempt count and deadline clock.
/// A straggler, or a worker whose transient failure is retried, is the
/// size-1 node {w, w+1, generation 1}; a silent branch is its gen-1/gen-2
/// node. The node is a named lvalue and the payload bytes a named local,
/// so no temporary is held across the co_await (the GCC 12 rule).
sim::Async<void> Reinvoke(QueryRun* q, const TreeNode& node, int attempt) {
  for (uint32_t id = node.begin; id < node.end; ++id) {
    q->attempts[id] = attempt + 1;
    q->invoked_at[id] = q->cloud->sim().Now();
  }
  const std::string what =
      node.size() == 1
          ? "reinvoke w" + std::to_string(node.begin)
          : "reinvoke-branch g" + std::to_string(node.generation) + " [" +
                std::to_string(node.begin) + "," + std::to_string(node.end) +
                ")";
  if (q->tr != nullptr) q->tr->Instant(q->collect_span, what);
  std::string raw = BranchPayload(*q, node, static_cast<uint32_t>(attempt));
  Status s = co_await InvokeOne(q, std::move(raw));
  if (!s.ok()) LAMBADA_LOG(Warning) << what << " failed: " << s.ToString();
}

/// Phase 1, span `plan`: lists every relation's glob, assembles the
/// optimizer's catalog, optimizes, prunes files through the stats index,
/// settles the worker count and the exchanges, resolves the scan request
/// size, builds every worker's leaf payload, and plans the invocation
/// tree around them.
sim::Async<Status> PlanPhase(QueryRun* q) {
  const RunOptions& options = *q->options;
  const Query& query = *q->query;
  const uint64_t plan_span = obs::Begin(q->tr, 0, "driver", "plan");
  // Every relation's glob is listed first: the probe listing drives the
  // fan-out, the build listings feed the optimizer's catalog and later
  // the build-file distribution.
  Result<PatternListing> probe =
      co_await ListPattern(q->client, query.pattern(), q->dopts->meta_cache);
  if (!probe.ok()) co_return probe.status();
  for (const auto& op : query.ops()) {
    if (op.kind != PlanOp::Kind::kJoin) continue;
    const std::string& bp = op.join->build_pattern;
    if (q->build_listings.count(bp) != 0) continue;
    auto bl = co_await ListPattern(q->client, bp, q->dopts->meta_cache);
    if (!bl.ok()) co_return bl.status();
    if (bl->files.empty()) {
      co_return Status::NotFound("no build input files match " + bp);
    }
    q->build_listings.emplace(bp, *std::move(bl));
  }

  // Assemble the optimizer's catalog: sizes from the listings; row counts
  // and column bounds from the stats index when enabled. Floated filter
  // columns are probed against every relation — lookups of columns a
  // relation does not have simply miss. A join-free plan has nothing to
  // cost, so it gets no catalog (and issues no stats-index lookups).
  StatsIndex stats_index(&q->cloud->ddb());
  Catalog catalog;
  if (!q->build_listings.empty()) {
    std::set<std::string> filter_cols;
    std::set<std::string> probe_cols;
    std::map<std::string, std::set<std::string>> build_cols;
    for (const auto& op : query.ops()) {
      if (op.kind == PlanOp::Kind::kFilter && op.expr != nullptr) {
        op.expr->CollectColumns(&filter_cols);
      } else if (op.kind == PlanOp::Kind::kJoin) {
        auto& bc = build_cols[op.join->build_pattern];
        for (const auto& k : op.join->probe_keys) probe_cols.insert(k);
        for (const auto& k : op.join->build_keys) bc.insert(k);
        for (const auto& bop : op.join->build_ops) {
          CollectOpColumns(bop, &bc);
        }
      }
    }

    auto add_relation = [&](const std::string& pattern,
                            const PatternListing& l,
                            std::set<std::string> cols)
        -> sim::Async<Status> {
      RelationStats rs;
      rs.bytes = static_cast<double>(l.total_bytes);
      rs.files = static_cast<int64_t>(l.files.size());
      if (options.use_stats_index) {
        cols.insert(filter_cols.begin(), filter_cols.end());
        std::set<std::string> listed;
        for (const auto& f : l.files) listed.insert(f.key);
        for (const auto& c : cols) {
          auto lookup = co_await stats_index.Lookup(q->dnet, l.dataset, c);
          if (!lookup.ok()) {
            if (lookup.status().IsNotFound()) continue;  // Not indexed.
            co_return lookup.status();
          }
          engine::Interval iv;
          double rows = 0;
          bool any = false;
          for (const auto& fb : *lookup) {
            if (listed.find(fb.file_key) == listed.end()) continue;
            if (!any) {
              iv.lo = fb.min;
              iv.hi = fb.max;
            } else {
              iv.lo = std::min(iv.lo, fb.min);
              iv.hi = std::max(iv.hi, fb.max);
            }
            rows += static_cast<double>(fb.rows);
            any = true;
          }
          if (!any) continue;
          rs.columns[c] = iv;
          // Virtual scaling applies to rows like it does to bytes.
          rs.rows = std::max(rs.rows, rows * options.data_scale);
        }
      }
      catalog.relations[pattern] = std::move(rs);
      co_return Status::OK();
    };
    CO_RETURN_NOT_OK(co_await add_relation(query.pattern(), *probe,
                                           probe_cols));
    for (const auto& [bp, bl] : q->build_listings) {
      CO_RETURN_NOT_OK(co_await add_relation(bp, bl, build_cols[bp]));
    }
  }

  // The worker count over `n_files` inputs: W = files / F (Section 5.2),
  // at least one worker and at most one per file. The optimizer costs the
  // broadcast alternative with the count over every listed file; the
  // final count is settled below, after pruning.
  auto worker_count = [&options](size_t n_files) {
    const auto per_worker = static_cast<size_t>(options.files_per_worker);
    const int w = options.num_workers > 0
                      ? options.num_workers
                      : static_cast<int>((n_files + per_worker - 1) /
                                         per_worker);
    return std::max(1, std::min<int>(w, static_cast<int>(n_files)));
  };

  OptimizerOptions opt;
  opt.workers = worker_count(probe->files.size());
  opt.strategy = options.join_strategy;
  Result<PhysicalQuery> physical = OptimizeQuery(query, catalog, opt);
  if (!physical.ok()) co_return physical.status();
  if (probe->files.empty()) {
    co_return Status::NotFound("no input files match " + physical->pattern);
  }
  q->physical = *std::move(physical);
  PhysicalQuery& plan = q->physical;
  std::vector<engine::FileRef>& files = q->files;
  files = std::move(probe->files);

  if (options.use_stats_index && plan.fragment.scan_filter != nullptr) {
    // Section 5.3 extension: central min/max index lets the driver skip
    // files before any worker is started.
    std::vector<std::string> keys;
    keys.reserve(files.size());
    for (const auto& f : files) keys.push_back(f.key);
    auto kept = co_await stats_index.PruneFiles(
        q->dnet, probe->dataset, std::move(keys), plan.fragment.scan_filter);
    // Either fallback scans every file; EXPLAIN says so.
    const std::string scan_all =
        ", scanning all " + std::to_string(files.size()) + " files\n";
    if (!kept.ok()) {
      plan.explain_text += "  stats index: prune failed (" +
                           kept.status().ToString() + ")" + scan_all;
    } else {
      std::set<std::string> keep_set(kept->begin(), kept->end());
      std::vector<engine::FileRef> kept_files;
      for (auto& f : files) {
        if (keep_set.count(f.key)) kept_files.push_back(std::move(f));
      }
      if (kept_files.empty()) {
        plan.explain_text += "  stats index: every file pruned" + scan_all;
      } else {
        files = std::move(kept_files);
      }
    }
  }

  // ---- Decide the worker count (W = files / F, Section 5.2) and settle
  // the exchanges in one walk: stamp each instance with a unique id,
  // ensure its buckets, and round W down to a grid it can factorize. A
  // partitioned join carries two exchanges over the same grid — the
  // probe-side kExchange op and the build side's inside the JoinSpec —
  // so both constrain it. A broadcast join runs none and constrains
  // nothing; its build_exchange is stamped only because the plan
  // serializes it. The shrink is a plan decision, so EXPLAIN shows it.
  int workers = worker_count(files.size());
  const int planned_workers = workers;
  for (size_t i = 0; i < plan.fragment.ops.size(); ++i) {
    PlanOp& op = plan.fragment.ops[i];
    ExchangeSpec* spec = nullptr;
    if (op.kind == PlanOp::Kind::kExchange) {
      spec = &*op.exchange;
      spec->exchange_id = q->query_id + "-x" + std::to_string(i);
    } else if (op.kind == PlanOp::Kind::kJoin) {
      op.join->build_exchange.exchange_id =
          q->query_id + "-xb" + std::to_string(i);
      if (op.join->strategy == JoinStrategy::kPartitioned) {
        spec = &op.join->build_exchange;
      }
    }
    if (spec == nullptr) continue;
    CO_RETURN_NOT_OK(CreateExchangeBuckets(&q->cloud->s3(), *spec));
    workers = LargestFactorizableWorkerCount(workers, spec->levels);
  }
  if (workers != planned_workers) {
    plan.explain_text += "  workers: " + std::to_string(planned_workers) +
                         " -> " + std::to_string(workers) +
                         " (exchange grid)\n";
  }

  // ---- Resolve the scan request size from table stats (Figure 7). ----
  // The listing gave the post-encoding (compressed) size of every input
  // file; together with the worker count that yields the bytes one worker
  // actually moves, which picks the request size balancing bandwidth
  // saturation against request count for the connection count every
  // worker's S3Source reads with. The probe relation dominates a join's
  // scan traffic, so its files drive the choice for both sides.
  int64_t scan_bytes = 0;
  for (const auto& f : files) scan_bytes += probe->sizes[f.key];
  plan.fragment.chunk_bytes =
      AdaptiveChunkBytes(scan_bytes / std::max(1, workers),
                         format::S3Source::Options().connections);

  // ---- Per-worker leaf payloads (contiguous file ranges). ----
  q->payloads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    InvocationPayload p;
    p.query_id = q->query_id;
    p.total_workers = static_cast<uint32_t>(workers);
    p.plan_bucket = q->dopts->system_bucket;
    p.plan_key = q->plan_key;
    p.result_queue = q->result_queue;
    p.data_scale = options.data_scale;
    p.hedge_gets = options.hedge_gets;
    p.self.worker_id = static_cast<uint32_t>(w);
    p.tree.subtree_end = static_cast<uint32_t>(w) + 1;
    size_t begin = files.size() * static_cast<size_t>(w) /
                   static_cast<size_t>(workers);
    size_t end = files.size() * (static_cast<size_t>(w) + 1) /
                 static_cast<size_t>(workers);
    p.self.files.assign(files.begin() + begin, files.begin() + end);
    for (const BuildInput& bi : q->physical.build_inputs) {
      const auto& bfiles = q->build_listings.at(bi.pattern).files;
      size_t before = p.self.build_files.size();
      if (bi.broadcast) {
        // Broadcast join: every worker reads the whole build relation.
        p.self.build_files.insert(p.self.build_files.end(), bfiles.begin(),
                                  bfiles.end());
      } else {
        // Partitioned join: contiguous build-file ranges; workers beyond
        // the build file count get none (the exchange redistributes, so
        // local coverage does not matter for correctness).
        size_t bbegin = bfiles.size() * static_cast<size_t>(w) /
                        static_cast<size_t>(workers);
        size_t bend = bfiles.size() * (static_cast<size_t>(w) + 1) /
                      static_cast<size_t>(workers);
        p.self.build_files.insert(p.self.build_files.end(),
                                  bfiles.begin() + bbegin,
                                  bfiles.begin() + bend);
      }
      p.self.build_counts.push_back(
          static_cast<uint32_t>(p.self.build_files.size() - before));
    }
    q->payloads.push_back(std::move(p));
  }

  // ---- Plan the invocation tree (Section 4.2, generalized). Every
  // payload carries its whole subtree's inputs, so the subtrees narrow to
  // what fits the Invoke limit.
  TreeOptions& topt = q->topt;
  topt.depth = q->dopts->invocation_tree_depth;
  topt.max_subtree =
      MaxSubtree(q->payloads, q->cloud->faas().config().max_payload_bytes);
  const cloud::RegionProfile& region = q->cloud->region();
  topt.cost.driver_invoke_latency_s = region.remote_invoke_latency_s;
  topt.cost.driver_rate_per_s = region.remote_client_rate_per_s;
  topt.cost.driver_threads = kInvokeThreads;
  topt.cost.worker_invoke_latency_s = region.intra_invoke_latency_s;
  topt.cost.worker_start_s = q->cloud->faas().config().cold_start_median_s +
                             q->cloud->faas().config().cold_init_cpu_s;
  q->tree = PlanInvocationTree(static_cast<uint32_t>(workers), topt);

  q->report.workers = workers;
  q->report.files = static_cast<int>(files.size());
  q->report.tree_depth = q->tree.depth();
  if (q->tr != nullptr) {
    q->tr->AddArg(plan_span, "query_id", q->query_id);
    q->tr->AddArg(plan_span, "workers", static_cast<int64_t>(workers));
    q->tr->AddArg(plan_span, "files", static_cast<int64_t>(files.size()));
    q->tr->EndSpan(plan_span);
  }
  co_return Status::OK();
}

/// Phase 2, span `upload-plan`: puts the fragment in S3 once (payloads
/// carry the pointer).
sim::Async<Status> UploadPhase(QueryRun* q) {
  const uint64_t upload_span = obs::Begin(q->tr, 0, "driver", "upload-plan");
  CO_RETURN_NOT_OK(co_await q->client->Put(
      q->dopts->system_bucket, q->plan_key,
      Buffer::FromVector(q->physical.fragment.Serialize())));
  obs::End(q->tr, upload_span);
  co_return Status::OK();
}

/// Phase 3, span `invoke`: starts the fleet through the invocation tree
/// (Section 4.2, generalized). The driver invokes the generation-1 roots,
/// each of which recursively starts its claimed ID range; depth-1 roots
/// are single workers, depth-2 roots reproduce the historical ~sqrt(P)
/// grouping exactly. The Invoke calls fan over a bounded pool of
/// invocation threads; the phase ends when every call was issued and
/// accepted.
sim::Async<Status> InvokePhase(QueryRun* q) {
  const uint64_t invoke_span = obs::Begin(q->tr, 0, "driver", "invoke");
  sim::Simulator* sim = &q->cloud->sim();
  sim::Semaphore gate(sim, kInvokeThreads);
  Status first_error = Status::OK();
  std::vector<sim::Async<void>> calls;
  for (const TreeNode& root : TreeRoots(q->tree)) {
    calls.push_back([](QueryRun* q, sim::Semaphore* g, Status* err,
                       std::string payload) -> sim::Async<void> {
      co_await g->Acquire();
      Status s = co_await InvokeOne(q, std::move(payload));
      if (!s.ok() && err->ok()) *err = s;
      g->Release();
    }(q, &gate, &first_error, BranchPayload(*q, root, 0)));
  }
  co_await sim::WhenAllVoid(sim, std::move(calls));
  CO_RETURN_NOT_OK(first_error);
  q->t_invoked = sim->Now();
  obs::End(q->tr, invoke_span);
  co_return Status::OK();
}

/// Phase 4, span `collect`: receives the results from the queue
/// (Section 3.3) into report.worker_results and counts the attempts they
/// took. SQS delivery is at-least-once and the mitigation path can race
/// several attempts of one worker, so collection is first-result-wins per
/// worker id: later deliveries (redeliveries or superseded attempts) are
/// counted and dropped, never merged twice. Workers are idempotent — any
/// attempt's partial is byte-identical — so "first" needs no attempt
/// arbitration.
sim::Async<Status> CollectPhase(QueryRun* q) {
  sim::Simulator* sim = &q->cloud->sim();
  const int workers = q->report.workers;
  const TreePlan& tree = q->tree;
  MitigationOptions mit = q->options->mitigation;
  double quantile = kStragglerQuantile;
  double min_deadline_s = kMinStragglerDeadlineS;
  if (mit.enabled && mit.fleet_aware) {
    // Fleet-size-aware values: a 10k-worker tree takes longer to merely
    // start than a small fleet takes to finish, so the fixed defaults
    // either fire on healthy deep fleets or sleep through dead branches.
    // Derive them from the modeled start skew of this exact tree.
    const double skew = models::TreeStartSkew(
        tree.fanout, static_cast<uint32_t>(workers), q->topt.cost);
    quantile = std::clamp(
        1.0 - 64.0 / static_cast<double>(workers), 0.5, 0.95);
    mit.stall_timeout_s = std::max(5.0, 3.0 * skew);
    min_deadline_s = std::max(2.0, 2.0 * skew);
  }
  // Subtree-recovery branch list: every gen-1 root subtree and, for
  // deeper trees, the gen-2 subtrees within each root. Host-side state —
  // the driver kept the TreePlan it invoked with, so a lost branch can be
  // restarted without consulting any worker.
  std::vector<TreeNode> branches;
  if (mit.enabled && mit.subtree_recovery && tree.depth() >= 2) {
    for (const TreeNode& root : TreeRoots(tree)) {
      if (root.size() > 1) branches.push_back(root);
      if (tree.depth() >= 3) {
        auto kids = TreeChildren(tree, root);
        if (kids.ok()) {
          for (const TreeNode& k : *kids) {
            if (k.size() > 1) branches.push_back(k);
          }
        }
      }
    }
  }
  std::vector<ResultMessage>& results = q->report.worker_results;
  results.reserve(static_cast<size_t>(workers));
  std::vector<char> seen(static_cast<size_t>(workers), 0);
  q->attempts.assign(static_cast<size_t>(workers), 1);
  q->invoked_at.assign(static_cast<size_t>(workers), q->t_invoked);
  // Progress-deadline state: armed once `quantile` of the fleet reported.
  const size_t quantile_need = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(quantile * static_cast<double>(workers))));
  double straggler_budget_s = -1.0;  // < 0: not armed yet.
  double last_progress = q->t_invoked;
  const double deadline = q->t_start + q->dopts->query_timeout_s;
  q->collect_span = obs::Begin(q->tr, 0, "driver", "collect");
  while (results.size() < static_cast<size_t>(workers)) {
    if (sim->Now() > deadline) {
      std::string missing;
      int listed = 0;
      for (int w = 0; w < workers; ++w) {
        if (seen[static_cast<size_t>(w)]) continue;
        if (listed == 16) {
          missing += ", ...";
          break;
        }
        if (listed++ > 0) missing += ", ";
        missing += std::to_string(w);
      }
      co_return Status::DeadlineExceeded(
          "query deadline of " + std::to_string(q->dopts->query_timeout_s) +
          "s exceeded with " + std::to_string(results.size()) + "/" +
          std::to_string(workers) + " results; missing workers: [" +
          missing + "]");
    }
    auto batch = co_await q->cloud->sqs().Receive(
        q->dnet, q->result_queue, 10, kResultPollWaitS);
    if (!batch.ok()) co_return batch.status();
    for (auto& raw : *batch) {
      auto msg = ResultMessage::Parse(raw);
      if (!msg.ok()) co_return msg.status();
      if (msg->query_id != q->query_id) continue;  // Stale message.
      if (msg->worker_id >= static_cast<uint32_t>(workers)) continue;
      const uint32_t w = msg->worker_id;
      if (seen[w]) {
        ++q->report.duplicate_results;
        continue;
      }
      if (mit.enabled && msg->status_code != StatusCode::kOk &&
          Status(msg->status_code, "").IsRetriable() &&
          q->attempts[w] < mit.max_attempts) {
        // Transient worker failure with attempts left: re-invoke instead
        // of recording the failure.
        const TreeNode single{w, w + 1, 1};
        co_await Reinvoke(q, single, q->attempts[w]);
        continue;
      }
      seen[w] = 1;
      last_progress = sim->Now();
      results.push_back(*std::move(msg));
    }
    if (!mit.enabled || results.size() >= static_cast<size_t>(workers)) {
      continue;
    }
    // Arm the straggler deadline at the quantile crossing: the budget is
    // the fleet's own pace times a slack multiplier.
    if (straggler_budget_s < 0 && results.size() >= quantile_need) {
      straggler_budget_s = std::max(
          min_deadline_s, kStragglerMultiplier * (sim->Now() - q->t_invoked));
    }
    // Speculative re-invocation: stragglers past their deadline, or the
    // whole missing set after a progress stall.
    const bool stalled =
        sim->Now() - last_progress > mit.stall_timeout_s;
    auto due = [&](uint32_t id) {
      return stalled ||
             (straggler_budget_s >= 0 &&
              sim->Now() >= q->invoked_at[id] + straggler_budget_s);
    };
    // Subtree recovery first: a completely silent branch (no worker in
    // its ID range ever reported — the signature of a lost invoker, not
    // of stragglers) is restarted with ONE Invoke call through its
    // gen-1/gen-2 invoker instead of branch-size individual calls. Every
    // member shares the fresh attempt id, so first-result-wins dedup and
    // attempt-stable exchange slice keys make the recovered branch
    // byte-identical. Branches list gen-1 roots before their gen-2
    // sub-branches, so the outermost silent subtree wins and the covered
    // mask keeps inner branches and the individual sweep off its range.
    std::vector<char> branch_covered(static_cast<size_t>(workers), 0);
    for (const TreeNode& b : branches) {
      bool silent = true;
      bool all_due = true;
      int branch_attempts = 0;
      for (uint32_t id = b.begin; id < b.end; ++id) {
        if (seen[id] || branch_covered[id]) {
          silent = false;
          break;
        }
        if (!due(id)) all_due = false;
        branch_attempts = std::max(branch_attempts, q->attempts[id]);
      }
      if (!silent || !all_due) continue;
      if (branch_attempts >= mit.max_attempts) continue;
      std::fill(branch_covered.begin() + b.begin,
                branch_covered.begin() + b.end, 1);
      ++q->report.subtree_reinvocations;
      co_await Reinvoke(q, b, branch_attempts);
    }
    for (uint32_t w = 0; w < static_cast<uint32_t>(workers); ++w) {
      if (seen[w] || branch_covered[w] || q->attempts[w] >= mit.max_attempts ||
          !due(w)) {
        continue;
      }
      const TreeNode single{w, w + 1, 1};
      co_await Reinvoke(q, single, q->attempts[w]);
    }
    if (stalled) last_progress = sim->Now();  // One sweep per stall.
  }
  obs::End(q->tr, q->collect_span);
  for (int attempts : q->attempts) {
    q->report.total_attempts += attempts;
    if (attempts > 1) ++q->report.reinvoked_workers;
  }
  co_return Status::OK();
}

/// Phase 5, span `merge`: merges the partial results in driver scope
/// (Section 3.2) into report.result, runs the driver-scope HAVING
/// filters, and merges the workers' registries into report.fleet_metrics.
sim::Async<Status> MergePhase(QueryRun* q) {
  const uint64_t merge_span = obs::Begin(q->tr, 0, "driver", "merge");
  std::vector<ResultMessage>& results = q->report.worker_results;
  for (const auto& r : results) {
    if (r.status_code != StatusCode::kOk) {
      co_return Status(r.status_code,
                       "worker " + std::to_string(r.worker_id) +
                           " failed: " + r.status_message);
    }
  }
  // Merge in worker order: tree shapes, retry schedules and concurrent
  // queries all perturb arrival order, and a worker-order merge keeps float
  // accumulation (and thus result bytes) schedule-invariant.
  std::sort(results.begin(), results.end(),
            [](const ResultMessage& a, const ResultMessage& b) {
              return a.worker_id < b.worker_id;
            });
  std::vector<engine::TableChunk> partials;
  partials.reserve(results.size());
  for (auto& r : results) {
    std::vector<uint8_t> bytes = r.inline_result;
    if (!r.spill_bucket.empty()) {
      auto spilled = co_await q->client->Get(r.spill_bucket, r.spill_key);
      if (!spilled.ok()) co_return spilled.status();
      bytes.assign((*spilled)->data(),
                   (*spilled)->data() + (*spilled)->size());
    }
    auto chunk = engine::DeserializeChunk(bytes.data(), bytes.size());
    if (!chunk.ok()) co_return chunk.status();
    partials.push_back(*std::move(chunk));
  }

  const PhysicalQuery& plan = q->physical;
  engine::TableChunk& result = q->report.result;
  if (plan.has_final_aggregate) {
    engine::HashAggregator merger(plan.final_group_by, plan.final_aggs);
    for (const auto& p : partials) {
      if (p.num_rows() == 0 && p.num_columns() == 0) continue;
      CO_RETURN_NOT_OK(merger.MergePartial(p));
    }
    result = merger.Finalize();
  } else {
    // Workers whose files were fully pruned emit empty chunks with no
    // schema; they contribute nothing to the concatenation.
    std::vector<engine::TableChunk> nonempty;
    for (auto& p : partials) {
      if (p.num_columns() > 0) nonempty.push_back(std::move(p));
    }
    auto merged = engine::ConcatChunks(nonempty);
    if (!merged.ok()) co_return merged.status();
    result = *std::move(merged);
  }

  // Driver-scope HAVING filters run against the finalized result.
  for (const auto& op : plan.driver_ops) {
    if (result.num_columns() == 0) break;
    auto kept = engine::FilterRows(result, *op.expr);
    if (!kept.ok()) co_return kept.status();
    result = *std::move(kept);
  }
  // Fleet-wide registry: the winning attempt of every worker.
  obs::MetricsRegistry& fleet = q->report.fleet_metrics;
  for (const auto& r : results) fleet.Merge(r.metrics);
  q->report.worker_s3_retries = fleet.counter(obs::Metric::kS3Retries);
  q->report.hedged_gets = fleet.counter(obs::Metric::kHedgedRequests);
  q->report.hedge_wins = fleet.counter(obs::Metric::kHedgeWins);
  if (q->tr != nullptr) {
    q->tr->AddArg(merge_span, "rows", static_cast<int64_t>(result.num_rows()));
    q->tr->EndSpan(merge_span);
  }
  co_return Status::OK();
}

}  // namespace

Driver::Driver(cloud::Cloud* cloud, DriverOptions options)
    : cloud_(cloud), options_(std::move(options)) {}

Status Driver::Install() {
  RETURN_NOT_OK(cloud_->s3().CreateBucket(options_.system_bucket));
  RETURN_NOT_OK(cloud_->sqs().CreateQueue(options_.result_queue));
  RETURN_NOT_OK(cloud_->ddb().CreateTable("lambada-meta"));
  ExchangeSpec defaults;
  defaults.bucket_prefix = options_.exchange_bucket_prefix;
  defaults.num_buckets = options_.exchange_buckets;
  RETURN_NOT_OK(CreateExchangeBuckets(&cloud_->s3(), defaults));
  StatsIndex stats(&cloud_->ddb());
  RETURN_NOT_OK(stats.CreateTable());
  installed_ = true;
  return Status::OK();
}

Status Driver::EnsureFunction(int memory_mib) {
  std::string name =
      options_.function_prefix + std::to_string(memory_mib);
  cloud::FunctionConfig fn;
  fn.name = name;
  fn.memory_mib = memory_mib;
  fn.timeout_s = 900.0;
  fn.handler = MakeWorkerHandler();
  return cloud_->faas().CreateFunction(std::move(fn));
}

void Driver::ResetWarm(int memory_mib) {
  cloud_->faas().ResetWarmPool(options_.function_prefix +
                               std::to_string(memory_mib));
}

sim::Async<Result<QueryReport>> Driver::Run(const Query& query,
                                            const RunOptions& options) {
  // Before any simulated request: PlanPhase divides by files_per_worker.
  if (options.files_per_worker < 1) {
    co_return Status::Invalid(
        "RunOptions::files_per_worker must be >= 1, got " +
        std::to_string(options.files_per_worker));
  }
  if (options.num_workers < 0) {
    co_return Status::Invalid("RunOptions::num_workers must be >= 0, got " +
                              std::to_string(options.num_workers));
  }
  if (!installed_) {
    CO_RETURN_NOT_OK(Install());
  }
  CO_RETURN_NOT_OK(EnsureFunction(options.memory_mib));
  QueryRun q;
  q.cloud = cloud_;
  q.dopts = &options_;
  q.query = &query;
  q.options = &options;
  q.function = options_.function_prefix + std::to_string(options.memory_mib);
  auto* sim = &cloud_->sim();
  q.t_start = sim->Now();
  // Under concurrency the global-ledger diff would absorb every other
  // in-flight query, so serving queries bill from their own attribution
  // ledger instead.
  const cloud::CostLedger& bill = options.attribution != nullptr
                                      ? *options.attribution
                                      : cloud_->ledger();
  const cloud::CostSnapshot cost_before = bill.Snapshot();
  const size_t metrics_before = cloud_->faas().completed_metrics().size();

  q.query_id = cloud_->NextQueryId();
  // Concurrent queries over one deployment must not steal each other's
  // result messages, so serving mode collects on a per-query queue
  // (workers read the queue name from their payload either way).
  q.result_queue = options_.serving_mode
                       ? options_.result_queue + "-" + q.query_id
                       : options_.result_queue;
  if (options_.serving_mode) {
    CO_RETURN_NOT_OK(cloud_->sqs().CreateQueue(q.result_queue));
  }
  q.plan_key = "plans/" + q.query_id;

  // ---- Tracing (docs/OBSERVABILITY.md). The tracer installs on the
  // deployment BEFORE the driver's S3 client is created, so every
  // NetContext minted for this query carries it; a RAII guard uninstalls
  // it on every exit from every phase (including error co_returns). A
  // failing phase leaves its span open on purpose — the trace then shows
  // exactly where the query died.
  std::shared_ptr<obs::Tracer> tracer;
  struct TracerGuard {
    cloud::Cloud* cloud = nullptr;
    ~TracerGuard() {
      if (cloud != nullptr) cloud->set_tracer(nullptr);
    }
  } tracer_guard;
  if (options.trace.enabled) {
    tracer = std::make_shared<obs::Tracer>(sim);
    cloud_->set_tracer(tracer.get());
    tracer_guard.cloud = cloud_;
  }
  q.tr = tracer.get();
  q.dnet = cloud_->driver_net();
  q.dnet.attribution = options.attribution;
  cloud::S3Client client(&cloud_->s3(), q.dnet);
  q.client = &client;

  CO_RETURN_NOT_OK(co_await PlanPhase(&q));
  CO_RETURN_NOT_OK(co_await UploadPhase(&q));
  CO_RETURN_NOT_OK(co_await InvokePhase(&q));
  CO_RETURN_NOT_OK(co_await CollectPhase(&q));
  CO_RETURN_NOT_OK(co_await MergePhase(&q));

  QueryReport& report = q.report;
  report.latency_s = sim->Now() - q.t_start;
  report.invocation_issue_s = q.t_invoked - q.t_start;
  report.cost = bill.Snapshot() - cost_before;
  report.join_choices = q.physical.join_choices;
  report.explain_text = q.physical.explain_text;
  // Other queries' invocations (concurrent ones, or a previous query's
  // late attempts) interleave in the completion log; keep ours.
  const auto& all_metrics = cloud_->faas().completed_metrics();
  for (auto it = all_metrics.begin() +
                 static_cast<std::ptrdiff_t>(metrics_before);
       it != all_metrics.end(); ++it) {
    if (it->query_id == q.query_id) report.worker_metrics.push_back(*it);
  }
  if (q.tr != nullptr) {
    q.tr->AddArg(q.tr->root(), "query_id", q.query_id);
    q.tr->AddArg(q.tr->root(), "workers",
                 static_cast<int64_t>(report.workers));
    q.tr->AddArg(q.tr->root(), "attempts", report.total_attempts);
    q.tr->AddArgF(q.tr->root(), "latency_s", report.latency_s);
    q.tr->EndSpan(q.tr->root());
    report.trace = tracer;
  }
  report.explain_analyze_text = RenderExplainAnalyze(q.physical, report);
  co_return std::move(report);
}

Result<QueryReport> Driver::RunToCompletion(const Query& query,
                                            const RunOptions& options) {
  auto out = std::make_shared<Result<QueryReport>>(
      Status::Internal("query did not finish"));
  sim::Spawn([](Driver* self, const Query* q, const RunOptions* opts,
                std::shared_ptr<Result<QueryReport>> result)
                 -> sim::Async<void> {
    *result = co_await self->Run(*q, *opts);
  }(this, &query, &options, out));
  cloud_->sim().Run();
  return std::move(*out);
}

}  // namespace lambada::core
