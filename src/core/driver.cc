#include "core/driver.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "cloud/meta_cache.h"
#include "common/glob.h"
#include "core/analyze.h"
#include "core/exchange.h"
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

/// The payload that starts `node`'s whole subtree: the template of its
/// own worker (`payloads` holds every worker's leaf payload) widened to
/// the node's range, with the descendants' inputs inline — or, with an
/// `inputs_key`, with none of the inputs: every member of the subtree,
/// the node included, fetches its own from that table.
InvocationPayload BranchPayload(const std::vector<InvocationPayload>& payloads,
                                const TreeNode& node,
                                const std::string& inputs_key) {
  InvocationPayload p = payloads[node.begin];
  p.tree.subtree_end = node.end;
  p.tree.generation = node.generation;
  p.tree.inputs_key = inputs_key;
  if (inputs_key.empty()) {
    for (uint32_t id = node.begin + 1; id < node.end; ++id) {
      p.tree.descendants.push_back(payloads[id].self);
    }
  } else {
    WorkerInput bare;
    bare.worker_id = node.begin;
    bare.attempt = p.self.attempt;
    p.self = std::move(bare);
  }
  return p;
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
  fn.handler = MakeWorkerHandler(options_.worker_exec);
  return cloud_->faas().CreateFunction(std::move(fn));
}

void Driver::ResetWarm(int memory_mib) {
  cloud_->faas().ResetWarmPool(options_.function_prefix +
                               std::to_string(memory_mib));
}

sim::Async<Status> Driver::InvokeOne(const std::string& function,
                                     std::string payload,
                                     cloud::CostLedger* attribution) {
  const cloud::InvokerProfile profile = cloud_->driver_invoker_profile();
  return cloud_->faas().InvokeWithRetries(profile, &cloud_->driver_rng(),
                                          function, std::move(payload),
                                          attribution);
}

sim::Async<Status> Driver::InvokeWorkers(
    const std::vector<InvocationPayload>& payloads, const TreePlan& tree,
    const std::string& inputs_key, const std::string& function,
    cloud::CostLedger* attribution) {
  // Invocation tree (Section 4.2, generalized): the driver invokes the
  // generation-1 roots; each recursively starts its claimed ID range.
  // Depth-1 roots are single workers; depth-2 roots reproduce the
  // historical ~sqrt(P) grouping exactly. The Invoke calls fan over a
  // bounded pool of invocation threads.
  const std::vector<TreeNode> roots = TreeRoots(tree);
  auto* sim = &cloud_->sim();
  auto gate = std::make_shared<sim::Semaphore>(sim, kInvokeThreads);
  auto first_error = std::make_shared<Status>(Status::OK());
  std::vector<sim::Async<void>> calls;
  calls.reserve(roots.size());
  for (const TreeNode& root : roots) {
    calls.push_back([](Driver* self, std::shared_ptr<sim::Semaphore> g,
                       std::shared_ptr<Status> err, std::string fn,
                       std::string payload,
                       cloud::CostLedger* attr) -> sim::Async<void> {
      co_await g->Acquire();
      Status s = co_await self->InvokeOne(fn, std::move(payload), attr);
      if (!s.ok() && err->ok()) *err = s;
      g->Release();
    }(this, gate, first_error, function,
      BranchPayload(payloads, root, inputs_key).Serialize(), attribution));
  }
  co_await sim::WhenAllVoid(sim, std::move(calls));
  co_return *first_error;
}

sim::Async<Result<QueryReport>> Driver::Run(const Query& query,
                                            const RunOptions& options) {
  if (!installed_) {
    CO_RETURN_NOT_OK(Install());
  }
  CO_RETURN_NOT_OK(EnsureFunction(options.memory_mib));
  const std::string function =
      options_.function_prefix + std::to_string(options.memory_mib);
  auto* sim = &cloud_->sim();
  const double t_start = sim->Now();
  const cloud::CostSnapshot cost_before = cloud_->ledger().Snapshot();
  const cloud::CostSnapshot attribution_before =
      options.attribution != nullptr ? options.attribution->Snapshot()
                                     : cloud::CostSnapshot{};
  const size_t metrics_before = cloud_->faas().completed_metrics().size();

  const std::string query_id = cloud_->NextQueryId();
  // Concurrent queries over one deployment must not steal each other's
  // result messages, so serving mode collects on a per-query queue
  // (workers read the queue name from their payload either way).
  const std::string result_queue =
      options_.serving_mode ? options_.result_queue + "-" + query_id
                            : options_.result_queue;
  if (options_.serving_mode) {
    CO_RETURN_NOT_OK(cloud_->sqs().CreateQueue(result_queue));
  }

  // ---- Tracing (docs/OBSERVABILITY.md). The tracer installs on the
  // deployment BEFORE the driver's S3 client is created, so every
  // NetContext minted for this query carries it; a RAII guard uninstalls
  // it on every exit path (including error co_returns). Error paths leave
  // the open spans unclosed on purpose — the trace then shows exactly
  // where the query died.
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
  obs::Tracer* tr = tracer.get();

  // ---- Compile. Every relation's glob is listed first: the probe listing
  // drives the fan-out, the build listings feed the optimizer's catalog
  // and later the build-file distribution.
  const uint64_t plan_span = obs::Begin(tr, 0, "driver", "plan");
  cloud::NetContext dnet = cloud_->driver_net();
  dnet.attribution = options.attribution;
  cloud::S3Client client(&cloud_->s3(), dnet);
  Result<PatternListing> probe_listing_or =
      co_await ListPattern(&client, query.pattern(), options_.meta_cache);
  if (!probe_listing_or.ok()) co_return probe_listing_or.status();
  PatternListing& probe_listing = *probe_listing_or;
  std::vector<engine::FileRef>& files = probe_listing.files;
  std::map<std::string, int64_t>& file_sizes = probe_listing.sizes;
  std::map<std::string, PatternListing> build_listings;  // By pattern.
  for (const auto& op : query.ops()) {
    if (op.kind != PlanOp::Kind::kJoin) continue;
    const std::string& bp = op.join->build_pattern;
    if (build_listings.count(bp) != 0) continue;
    auto bl = co_await ListPattern(&client, bp, options_.meta_cache);
    if (!bl.ok()) co_return bl.status();
    if (bl->files.empty()) {
      co_return Status::NotFound("no build input files match " + bp);
    }
    build_listings.emplace(bp, *std::move(bl));
  }

  // Assemble the optimizer's catalog: sizes from the listings; row counts
  // and column bounds from the stats index when enabled. Floated filter
  // columns are probed against every relation — lookups of columns a
  // relation does not have simply miss. A join-free plan has nothing to
  // cost, so it gets no catalog (and issues no stats-index lookups).
  StatsIndex stats_index(&cloud_->ddb());
  Catalog catalog;
  if (!build_listings.empty()) {
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
          auto lookup = co_await stats_index.Lookup(dnet, l.dataset, c);
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
    CO_RETURN_NOT_OK(co_await add_relation(query.pattern(), probe_listing,
                                           probe_cols));
    for (const auto& [bp, bl] : build_listings) {
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
  opt.workers = worker_count(files.size());
  opt.strategy = options.join_strategy;
  Result<PhysicalQuery> physical = OptimizeQuery(query, catalog, opt);
  if (!physical.ok()) co_return physical.status();
  if (files.empty()) {
    co_return Status::NotFound("no input files match " + physical->pattern);
  }

  // Stamp exchange instances with a unique id and ensure their buckets. A
  // partitioned join carries two: the probe-side kExchange op and the
  // build side's exchange inside the JoinSpec. A broadcast join carries
  // none.
  for (size_t i = 0; i < physical->fragment.ops.size(); ++i) {
    auto& op = physical->fragment.ops[i];
    if (op.kind == PlanOp::Kind::kExchange) {
      op.exchange->exchange_id = query_id + "-x" + std::to_string(i);
      CO_RETURN_NOT_OK(CreateExchangeBuckets(&cloud_->s3(), *op.exchange));
    } else if (op.kind == PlanOp::Kind::kJoin) {
      op.join->build_exchange.exchange_id =
          query_id + "-xb" + std::to_string(i);
      if (op.join->strategy == JoinStrategy::kPartitioned) {
        CO_RETURN_NOT_OK(
            CreateExchangeBuckets(&cloud_->s3(), op.join->build_exchange));
      }
    }
  }

  if (options.use_stats_index && physical->fragment.scan_filter != nullptr) {
    // Section 5.3 extension: central min/max index lets the driver skip
    // files before any worker is started.
    std::vector<std::string> keys;
    keys.reserve(files.size());
    for (const auto& f : files) keys.push_back(f.key);
    auto kept = co_await stats_index.PruneFiles(
        dnet, probe_listing.dataset, std::move(keys),
        physical->fragment.scan_filter);
    // Either fallback scans every file; EXPLAIN says so.
    const std::string scan_all =
        ", scanning all " + std::to_string(files.size()) + " files\n";
    if (!kept.ok()) {
      physical->explain_text += "  stats index: prune failed (" +
                                kept.status().ToString() + ")" + scan_all;
    } else {
      std::set<std::string> keep_set(kept->begin(), kept->end());
      std::vector<engine::FileRef> kept_files;
      for (auto& f : files) {
        if (keep_set.count(f.key)) kept_files.push_back(std::move(f));
      }
      if (kept_files.empty()) {
        physical->explain_text +=
            "  stats index: every file pruned" + scan_all;
      } else {
        files = std::move(kept_files);
      }
    }
  }

  // ---- Decide the worker count (W = files / F, Section 5.2). ----
  int workers = worker_count(files.size());
  // Exchanges need a factorizable worker grid; round down if necessary.
  // Both exchanges of a partitioned join run over the same grid, so both
  // constrain it; a broadcast join has no exchange and constrains nothing.
  // The shrink is a plan decision, so EXPLAIN shows it.
  const int planned_workers = workers;
  for (const auto& op : physical->fragment.ops) {
    const ExchangeSpec* specs[2] = {
        op.kind == PlanOp::Kind::kExchange ? &*op.exchange : nullptr,
        op.kind == PlanOp::Kind::kJoin &&
                op.join->strategy == JoinStrategy::kPartitioned
            ? &op.join->build_exchange
            : nullptr};
    for (const ExchangeSpec* spec : specs) {
      if (spec == nullptr) continue;
      workers = LargestFactorizableWorkerCount(workers, spec->levels);
    }
  }
  if (workers != planned_workers) {
    physical->explain_text += "  workers: " + std::to_string(planned_workers) +
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
  for (const auto& f : files) scan_bytes += file_sizes[f.key];
  physical->fragment.chunk_bytes =
      AdaptiveChunkBytes(scan_bytes / std::max(1, workers),
                         format::S3Source::Options().connections);

  // ---- Plan the invocation tree (Section 4.2, generalized). ----
  TreeOptions topt;
  topt.depth = options_.invocation_tree_depth;
  const cloud::RegionProfile& region = cloud_->region();
  topt.cost.driver_invoke_latency_s = region.remote_invoke_latency_s;
  topt.cost.driver_rate_per_s = region.remote_client_rate_per_s;
  topt.cost.driver_threads = kInvokeThreads;
  topt.cost.worker_invoke_latency_s = region.intra_invoke_latency_s;
  topt.cost.worker_start_s = cloud_->faas().config().cold_start_median_s +
                             cloud_->faas().config().cold_init_cpu_s;
  const TreePlan tree =
      PlanInvocationTree(static_cast<uint32_t>(workers), topt);
  // Trees deeper than two levels batch their payloads: an inline payload
  // would carry every grandchild's inputs through the tree.
  const std::string inputs_key =
      tree.depth() >= 3 ? "plans/" + query_id + ".inputs" : "";

  if (tr != nullptr) {
    tr->AddArg(plan_span, "query_id", query_id);
    tr->AddArg(plan_span, "workers", static_cast<int64_t>(workers));
    tr->AddArg(plan_span, "files", static_cast<int64_t>(files.size()));
    tr->EndSpan(plan_span);
  }

  // ---- Upload the plan once; payloads carry the pointer. ----
  const uint64_t upload_span = obs::Begin(tr, 0, "driver", "upload-plan");
  std::string plan_key = "plans/" + query_id;
  CO_RETURN_NOT_OK(co_await client.Put(
      options_.system_bucket, plan_key,
      Buffer::FromVector(physical->fragment.Serialize())));
  obs::End(tr, upload_span);

  // ---- Build per-worker leaf payloads (contiguous file ranges). ----
  std::vector<InvocationPayload> payloads;
  payloads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    InvocationPayload p;
    p.query_id = query_id;
    p.total_workers = static_cast<uint32_t>(workers);
    p.plan_bucket = options_.system_bucket;
    p.plan_key = plan_key;
    p.result_queue = result_queue;
    p.data_scale = options.data_scale;
    p.hedge_gets = options.hedge_gets;
    p.self.worker_id = static_cast<uint32_t>(w);
    p.tree.subtree_end = static_cast<uint32_t>(w) + 1;
    p.tree.fanout = tree.fanout;
    size_t begin = files.size() * static_cast<size_t>(w) /
                   static_cast<size_t>(workers);
    size_t end = files.size() * (static_cast<size_t>(w) + 1) /
                 static_cast<size_t>(workers);
    p.self.files.assign(files.begin() + begin, files.begin() + end);
    for (size_t j = 0; j < physical->build_inputs.size(); ++j) {
      const auto& bi = physical->build_inputs[j];
      const auto& bfiles = build_listings.at(bi.pattern).files;
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
    payloads.push_back(std::move(p));
  }

  // ---- Batched invocation: one table object holds every worker's
  // inputs; payloads then carry only their subtree ID range, so payload
  // bytes (and the bytes any one worker fetches) stay O(1) in the fleet
  // size.
  if (!inputs_key.empty()) {
    std::vector<WorkerInput> inputs;
    inputs.reserve(payloads.size());
    for (const auto& p : payloads) inputs.push_back(p.self);
    const uint64_t inputs_span = obs::Begin(tr, 0, "driver", "upload-inputs");
    CO_RETURN_NOT_OK(co_await client.Put(
        options_.system_bucket, inputs_key,
        Buffer::FromVector(EncodeWorkerInputTable(inputs))));
    obs::End(tr, inputs_span);
  }

  // ---- Invoke. ----
  // The payloads stay behind as the re-invocation templates of the
  // mitigation loop below.
  const uint64_t invoke_span = obs::Begin(tr, 0, "driver", "invoke");
  CO_RETURN_NOT_OK(co_await InvokeWorkers(payloads, tree, inputs_key, function,
                                          options.attribution));
  const double t_invoked = sim->Now();
  obs::End(tr, invoke_span);

  // ---- Collect results from the queue (Section 3.3). ----
  // SQS delivery is at-least-once and the mitigation path can race
  // several attempts of one worker, so collection is first-result-wins
  // per worker id: later deliveries (redeliveries or superseded
  // attempts) are counted and dropped, never merged twice. Workers are
  // idempotent — any attempt's partial is byte-identical — so "first"
  // needs no attempt arbitration.
  MitigationOptions mit = options.mitigation;
  double quantile = kStragglerQuantile;
  double min_deadline_s = kMinStragglerDeadlineS;
  if (mit.enabled && mit.fleet_aware) {
    // Fleet-size-aware values: a 10k-worker tree takes longer to merely
    // start than a small fleet takes to finish, so the fixed defaults
    // either fire on healthy deep fleets or sleep through dead branches.
    // Derive them from the modeled start skew of this exact tree.
    const double skew = models::TreeStartSkew(
        tree.fanout, static_cast<uint32_t>(workers), topt.cost);
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
  int subtree_reinvocations = 0;
  std::vector<ResultMessage> results;
  results.reserve(static_cast<size_t>(workers));
  std::vector<char> seen(static_cast<size_t>(workers), 0);
  std::vector<int> attempts(static_cast<size_t>(workers), 1);
  std::vector<double> invoked_at(static_cast<size_t>(workers), t_invoked);
  int64_t duplicate_results = 0;
  int reinvoked_workers = 0;
  // Progress-deadline state: armed once `quantile` of the fleet reported.
  const size_t quantile_need = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(quantile * static_cast<double>(workers))));
  double straggler_budget_s = -1.0;  // < 0: not armed yet.
  double last_progress = t_invoked;
  const double deadline = t_start + options_.query_timeout_s;
  const uint64_t collect_span = obs::Begin(tr, 0, "driver", "collect");
  // Re-invokes one worker alone under its next attempt id: a transient
  // failure's retry, or a straggler past its deadline. Its argument is a
  // named lvalue and the payload bytes a named local, so no temporary is
  // held across the co_await (the GCC 12 rule, core/session_manager.h).
  auto reinvoke = [&](size_t w) -> sim::Async<void> {
    InvocationPayload retry = payloads[w];
    retry.self.attempt = static_cast<uint32_t>(attempts[w]++);
    invoked_at[w] = sim->Now();
    if (tr != nullptr) {
      tr->Instant(collect_span, "reinvoke w" + std::to_string(w));
    }
    std::string raw = retry.Serialize();
    Status s = co_await InvokeOne(function, std::move(raw),
                                  options.attribution);
    if (!s.ok()) {
      LAMBADA_LOG(Warning) << "re-invocation of worker " << w
                           << " failed: " << s.ToString();
    }
  };
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
          "query deadline of " + std::to_string(options_.query_timeout_s) +
          "s exceeded with " + std::to_string(results.size()) + "/" +
          std::to_string(workers) + " results; missing workers: [" +
          missing + "]");
    }
    auto batch = co_await cloud_->sqs().Receive(
        dnet, result_queue, 10, kResultPollWaitS);
    if (!batch.ok()) co_return batch.status();
    for (auto& raw : *batch) {
      auto msg = ResultMessage::Parse(raw);
      if (!msg.ok()) co_return msg.status();
      if (msg->query_id != query_id) continue;  // Stale message.
      if (msg->worker_id >= static_cast<uint32_t>(workers)) continue;
      const size_t w = msg->worker_id;
      if (seen[w]) {
        ++duplicate_results;
        continue;
      }
      if (mit.enabled && msg->status_code != StatusCode::kOk &&
          Status(msg->status_code, "").IsRetriable() &&
          attempts[w] < mit.max_attempts) {
        // Transient worker failure with attempts left: re-invoke instead
        // of recording the failure.
        co_await reinvoke(w);
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
          min_deadline_s, kStragglerMultiplier * (sim->Now() - t_invoked));
    }
    // Speculative re-invocation: stragglers past their deadline, or the
    // whole missing set after a progress stall.
    const bool stalled =
        sim->Now() - last_progress > mit.stall_timeout_s;
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
        const bool due =
            stalled || (straggler_budget_s >= 0 &&
                        sim->Now() >= invoked_at[id] + straggler_budget_s);
        if (!due) all_due = false;
        branch_attempts = std::max(branch_attempts, attempts[id]);
      }
      if (!silent || !all_due) continue;
      if (branch_attempts >= mit.max_attempts) continue;
      InvocationPayload retry = BranchPayload(payloads, b, inputs_key);
      retry.self.attempt = static_cast<uint32_t>(branch_attempts);
      for (uint32_t id = b.begin; id < b.end; ++id) {
        branch_covered[id] = 1;
        attempts[id] = branch_attempts + 1;
        invoked_at[id] = sim->Now();
      }
      ++subtree_reinvocations;
      if (tr != nullptr) {
        tr->Instant(collect_span,
                    "reinvoke-branch g" + std::to_string(b.generation) +
                        " [" + std::to_string(b.begin) + "," +
                        std::to_string(b.end) + ")");
      }
      std::string raw = retry.Serialize();
      Status s = co_await InvokeOne(function, std::move(raw),
                                    options.attribution);
      if (!s.ok()) {
        LAMBADA_LOG(Warning)
            << "branch re-invocation [" << b.begin << "," << b.end
            << ") failed: " << s.ToString();
      }
    }
    for (int w = 0; w < workers; ++w) {
      const size_t wi = static_cast<size_t>(w);
      if (seen[wi] || branch_covered[wi] ||
          attempts[wi] >= mit.max_attempts) {
        continue;
      }
      const bool past_deadline =
          straggler_budget_s >= 0 &&
          sim->Now() >= invoked_at[wi] + straggler_budget_s;
      if (!past_deadline && !stalled) continue;
      co_await reinvoke(wi);
    }
    if (stalled) last_progress = sim->Now();  // One sweep per stall.
  }
  obs::End(tr, collect_span);

  // ---- Merge partial results (driver scope). ----
  const uint64_t merge_span = obs::Begin(tr, 0, "driver", "merge");
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
      auto spilled = co_await client.Get(r.spill_bucket, r.spill_key);
      if (!spilled.ok()) co_return spilled.status();
      bytes.assign((*spilled)->data(),
                   (*spilled)->data() + (*spilled)->size());
    }
    auto chunk = engine::DeserializeChunk(bytes.data(), bytes.size());
    if (!chunk.ok()) co_return chunk.status();
    partials.push_back(*std::move(chunk));
  }

  QueryReport report;
  if (physical->has_final_aggregate) {
    engine::HashAggregator merger(physical->final_group_by,
                                  physical->final_aggs);
    for (const auto& p : partials) {
      if (p.num_rows() == 0 && p.num_columns() == 0) continue;
      CO_RETURN_NOT_OK(merger.MergePartial(p));
    }
    report.result = merger.Finalize();
  } else {
    // Workers whose files were fully pruned emit empty chunks with no
    // schema; they contribute nothing to the concatenation.
    std::vector<engine::TableChunk> nonempty;
    for (auto& p : partials) {
      if (p.num_columns() > 0) nonempty.push_back(std::move(p));
    }
    auto merged = engine::ConcatChunks(nonempty);
    if (!merged.ok()) co_return merged.status();
    report.result = *std::move(merged);
  }

  // Driver-scope HAVING filters run against the finalized result.
  for (const auto& op : physical->driver_ops) {
    if (report.result.num_columns() == 0) break;
    auto kept = engine::FilterRows(report.result, *op.expr);
    if (!kept.ok()) co_return kept.status();
    report.result = *std::move(kept);
  }
  if (tr != nullptr) {
    tr->AddArg(merge_span, "rows",
               static_cast<int64_t>(report.result.num_rows()));
    tr->EndSpan(merge_span);
  }

  report.latency_s = sim->Now() - t_start;
  report.invocation_issue_s = t_invoked - t_start;
  report.workers = workers;
  report.files = static_cast<int>(files.size());
  // Under concurrency the global-ledger diff would absorb every other
  // in-flight query, so serving queries bill from their own attribution
  // ledger instead.
  report.cost = options.attribution != nullptr
                    ? options.attribution->Snapshot() - attribution_before
                    : cloud_->ledger().Snapshot() - cost_before;
  for (int w = 0; w < workers; ++w) {
    report.total_attempts += attempts[static_cast<size_t>(w)];
    if (attempts[static_cast<size_t>(w)] > 1) ++reinvoked_workers;
  }
  report.reinvoked_workers = reinvoked_workers;
  report.subtree_reinvocations = subtree_reinvocations;
  report.tree_depth = tree.depth();
  report.duplicate_results = duplicate_results;
  // Fleet-wide registry: the winning attempt of every worker.
  for (const auto& r : results) report.fleet_metrics.Merge(r.metrics);
  const obs::MetricsRegistry& fleet = report.fleet_metrics;
  report.worker_s3_retries = fleet.counter(obs::Metric::kS3Retries);
  report.hedged_gets = fleet.counter(obs::Metric::kHedgedRequests);
  report.hedge_wins = fleet.counter(obs::Metric::kHedgeWins);
  report.worker_results = std::move(results);
  report.join_choices = physical->join_choices;
  report.explain_text = physical->explain_text;
  // Other queries' invocations (concurrent ones, or a previous query's
  // late attempts) interleave in the completion log; keep ours.
  const auto& all_metrics = cloud_->faas().completed_metrics();
  for (auto it = all_metrics.begin() +
                 static_cast<std::ptrdiff_t>(metrics_before);
       it != all_metrics.end(); ++it) {
    if (it->query_id == query_id) report.worker_metrics.push_back(*it);
  }

  if (tr != nullptr) {
    tr->AddArg(tr->root(), "query_id", query_id);
    tr->AddArg(tr->root(), "workers", static_cast<int64_t>(workers));
    tr->AddArg(tr->root(), "attempts", report.total_attempts);
    tr->AddArgF(tr->root(), "latency_s", report.latency_s);
    tr->EndSpan(tr->root());
    report.trace = tracer;
    if (!options.trace.chrome_json_path.empty()) {
      std::ofstream out(options.trace.chrome_json_path,
                        std::ios::binary | std::ios::trunc);
      if (out) {
        out << tr->ChromeTraceJson();
        report.trace_path = options.trace.chrome_json_path;
      } else {
        LAMBADA_LOG(Warning) << "cannot write trace to "
                             << options.trace.chrome_json_path;
      }
    }
  }
  report.explain_analyze_text = RenderExplainAnalyze(*physical, report);
  co_return report;
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
