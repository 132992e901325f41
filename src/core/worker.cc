#include "core/worker.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "core/exchange.h"
#include "core/invocation_tree.h"
#include "core/messages.h"
#include "core/plan.h"
#include "engine/aggregate.h"
#include "engine/chunk_serde.h"
#include "engine/join.h"
#include "engine/scan.h"

namespace lambada::core {

namespace {

using engine::TableChunk;

/// Per-row CPU cost of one vectorized row-wise operator (vCPU-seconds).
constexpr double kRowOpCpuPerRow = 2e-9;
/// Per-row CPU cost of hash-aggregation consume.
constexpr double kAggCpuPerRow = 5e-9;
/// Per-row CPU cost of the hash join (charged for build + probe + output
/// rows: table insert, probe walk, and materialization).
constexpr double kJoinCpuPerRow = 8e-9;
/// Results larger than this spill to S3 (SQS limit is 256 KiB; leave room
/// for the envelope).
constexpr size_t kInlineResultLimit = 200 * 1024;

/// Applies a row-wise op (filter/map/select) to a chunk.
Result<TableChunk> ApplyRowOp(const PlanOp& op, TableChunk chunk) {
  switch (op.kind) {
    case PlanOp::Kind::kFilter:
      return engine::FilterRows(chunk, *op.expr);
    case PlanOp::Kind::kMap: {
      ASSIGN_OR_RETURN(engine::Column col, op.expr->Evaluate(chunk));
      std::vector<engine::Field> fields = chunk.schema()->fields();
      fields.push_back(engine::Field{op.name, col.type()});
      std::vector<engine::Column> cols = chunk.columns();
      cols.push_back(std::move(col));
      return TableChunk(
          std::make_shared<engine::Schema>(std::move(fields)),
          std::move(cols));
    }
    case PlanOp::Kind::kSelect: {
      std::vector<engine::Field> fields;
      std::vector<engine::Column> cols;
      for (size_t i = 0; i < op.exprs.size(); ++i) {
        ASSIGN_OR_RETURN(engine::Column col, op.exprs[i]->Evaluate(chunk));
        fields.push_back(engine::Field{op.names[i], col.type()});
        cols.push_back(std::move(col));
      }
      return TableChunk(
          std::make_shared<engine::Schema>(std::move(fields)),
          std::move(cols));
    }
    default:
      return Status::Internal("ApplyRowOp on non-row op");
  }
}

/// Builds the ScanOptions of one scan pipeline of a fragment.
engine::ScanOptions MakeScanOptions(std::vector<std::string> projection,
                                    engine::ExprPtr filter,
                                    int64_t chunk_bytes) {
  engine::ScanOptions scan_options;
  scan_options.projection = std::move(projection);
  scan_options.filter = std::move(filter);
  scan_options.source.chunk_bytes = chunk_bytes;
  return scan_options;
}

/// Scans `files` and streams every chunk through the leading row ops
/// [0, n_ops) of `ops`: one scan pipeline of a fragment (the probe scan,
/// or — with a JoinSpec's op list — a build side). The survivors are
/// concatenated; with an `agg` (the fragment's first pipeline breaker is
/// its terminal aggregate) they stream into it instead, reserving no
/// memory per chunk, and the pipeline returns the partial state. Row-op
/// and aggregation CPU is charged once after the scan, when the row count
/// is known; the dominant in-scan costs (decompression, residual filter)
/// are charged inside the scan. Scan counters accumulate into the worker's
/// registry.
sim::Async<Result<TableChunk>> RunScanPipeline(
    cloud::WorkerEnv& env, const std::vector<engine::FileRef>& files,
    engine::ScanOptions scan_options, const std::vector<PlanOp>& ops,
    size_t n_ops, engine::HashAggregator* agg, const char* phase_label) {
  std::vector<TableChunk> collected;
  int64_t collected_bytes = 0;
  auto sink = [&](const TableChunk& chunk) -> Status {
    TableChunk current = chunk;
    for (size_t i = 0; i < n_ops; ++i) {
      auto next = ApplyRowOp(ops[i], std::move(current));
      if (!next.ok()) return next.status();
      current = *std::move(next);
    }
    if (agg != nullptr) return agg->ConsumeInput(current);
    RETURN_NOT_OK(env.ReserveMemory(current.memory_bytes()));
    collected_bytes += current.memory_bytes();
    collected.push_back(std::move(current));
    return Status::OK();
  };
  Result<obs::MetricsRegistry> scan = Status::Internal("scan not run");
  {
    // The per-row-group child spans created inside S3ParquetScan parent
    // under this span.
    cloud::EnvSpan span(&env, "scan", phase_label);
    scan = co_await engine::S3ParquetScan(env, files, scan_options, sink);
    if (!scan.ok()) co_return scan.status();
    if (span.id() != 0) {
      env.tracer()->AddArg(span.id(), "rows",
                           scan->counter(obs::Metric::kRowsEmitted));
      env.tracer()->AddArg(span.id(), "bytes",
                           scan->counter(obs::Metric::kScanBytesMoved));
    }
  }
  env.registry().Merge(*scan);
  const double rows =
      static_cast<double>(scan->counter(obs::Metric::kRowsEmitted));
  double cpu = rows * kRowOpCpuPerRow * static_cast<double>(n_ops);
  if (agg != nullptr) cpu += rows * kAggCpuPerRow;
  co_await env.Compute(cpu * env.data_scale);
  if (agg != nullptr) co_return agg->PartialState();
  auto out = engine::ConcatChunks(collected);
  env.ReleaseMemory(collected_bytes);
  if (!out.ok()) co_return out.status();
  co_return *std::move(out);
}

/// The modeled size of `real` serialized exchange bytes: virtually-scaled
/// experiments shuffle data_scale x the real rows.
int64_t ModeledBytes(const cloud::WorkerEnv& env, int64_t real) {
  return static_cast<int64_t>(static_cast<double>(real) * env.data_scale);
}

/// Accumulates one exchange run's traffic into the worker's registry.
void AddExchangeMetrics(cloud::WorkerEnv& env, const ExchangeMetrics& xm) {
  const int64_t real_written =
      xm.registry.counter(obs::Metric::kExchangeBytesWritten);
  const int64_t real_read =
      xm.registry.counter(obs::Metric::kExchangeBytesRead);
  env.registry().Merge(xm.registry);
  // The merge added the exchange's REAL serialized bytes; shift the two
  // byte counters so the totals are modeled bytes like everything else.
  env.registry().Add(obs::Metric::kExchangeBytesWritten,
                     ModeledBytes(env, real_written) - real_written);
  env.registry().Add(obs::Metric::kExchangeBytesRead,
                     ModeledBytes(env, real_read) - real_read);
}

/// Executes the plan fragment over the worker's inputs and returns the
/// worker's partial result (the serverless scope of Section 3.2; joins
/// per Section 4.4, generalized to a chain). A single-table fragment is a
/// join fragment with zero joins. The probe scan pipeline runs up to the
/// first pipeline breaker; then, op by op: an exchange (deferred when it
/// feeds a join — it is that partitioned join's probe side and runs after
/// the build side's exchange; every worker uses this order, so the rounds
/// line up across the fleet), a join (build scan pipeline, the build
/// exchange of a partitioned join — a broadcast join runs none, every
/// worker holds the whole build relation — then the local hash join), row
/// ops on the current pipeline, and the terminal aggregate's partial
/// state.
sim::Async<Result<TableChunk>> ExecuteFragment(
    cloud::WorkerEnv& env, const PlanFragment& fragment,
    const InvocationPayload& payload) {
  const int p = static_cast<int>(payload.self.worker_id);
  const int P = static_cast<int>(payload.total_workers);

  // Slice the payload's build files into per-join lists, one count per
  // join (parsing checked that the counts cover the list).
  std::vector<std::vector<engine::FileRef>> build_files;
  auto next_file = payload.self.build_files.begin();
  for (uint32_t n : payload.self.build_counts) {
    build_files.emplace_back(next_file, next_file + n);
    next_file += n;
  }

  auto run_exchange = [&](const ExchangeSpec& spec, TableChunk in)
      -> sim::Async<Result<TableChunk>> {
    cloud::EnvSpan span(&env, "exchange", "exchange");
    if (span.id() != 0) {
      env.tracer()->AddArg(span.id(), "exchange_id", spec.exchange_id);
    }
    ExchangeMetrics xm;
    auto out = co_await RunExchange(env, spec, p, P, std::move(in), &xm);
    AddExchangeMetrics(env, xm);
    if (span.id() != 0) {
      using obs::Metric;
      const obs::MetricsRegistry& r = xm.registry;
      env.tracer()->AddArg(
          span.id(), "bytes_written",
          ModeledBytes(env, r.counter(Metric::kExchangeBytesWritten)));
      env.tracer()->AddArg(
          span.id(), "bytes_read",
          ModeledBytes(env, r.counter(Metric::kExchangeBytesRead)));
      env.tracer()->AddArg(span.id(), "puts",
                           r.counter(Metric::kExchangePutRequests));
      env.tracer()->AddArg(span.id(), "gets",
                           r.counter(Metric::kExchangeGetRequests));
    }
    co_return out;
  };

  // ---- Probe pipeline: scan through the leading row ops. ----
  size_t first_break = fragment.ops.size();
  for (size_t i = 0; i < fragment.ops.size(); ++i) {
    const PlanOp::Kind k = fragment.ops[i].kind;
    if (k != PlanOp::Kind::kFilter && k != PlanOp::Kind::kMap &&
        k != PlanOp::Kind::kSelect) {
      first_break = i;
      break;
    }
  }
  // A terminal aggregate right behind the scan pipeline consumes the scan
  // stream directly.
  std::optional<engine::HashAggregator> scan_agg;
  if (first_break + 1 == fragment.ops.size() && fragment.EndsInAggregate()) {
    scan_agg.emplace(fragment.ops.back().group_by, fragment.ops.back().aggs);
  }
  auto probe_local = co_await RunScanPipeline(
      env, payload.self.files,
      MakeScanOptions(fragment.scan_projection, fragment.scan_filter,
                      fragment.chunk_bytes),
      fragment.ops, first_break, scan_agg ? &*scan_agg : nullptr, "scan");
  if (!probe_local.ok() || scan_agg) co_return std::move(probe_local);
  TableChunk current = *std::move(probe_local);

  size_t next_build = 0;               // Next join's build-file ordinal.
  const PlanOp* pending_exchange = nullptr;
  for (size_t i = first_break; i < fragment.ops.size(); ++i) {
    const PlanOp& op = fragment.ops[i];
    switch (op.kind) {
      case PlanOp::Kind::kExchange: {
        if (i + 1 < fragment.ops.size() &&
            fragment.ops[i + 1].kind == PlanOp::Kind::kJoin) {
          // The probe-side exchange of the next partitioned join. It runs
          // after that join's build side (see the function comment).
          pending_exchange = &op;
          break;
        }
        auto exchanged = co_await run_exchange(*op.exchange,
                                               std::move(current));
        if (!exchanged.ok()) co_return exchanged.status();
        current = *std::move(exchanged);
        break;
      }
      case PlanOp::Kind::kJoin: {
        const JoinSpec& join = *op.join;
        const bool partitioned =
            join.strategy == JoinStrategy::kPartitioned;
        if (partitioned && pending_exchange == nullptr) {
          co_return Status::Invalid(
              "join must be fed by a probe-side exchange");
        }
        if (!partitioned && pending_exchange != nullptr) {
          co_return Status::Invalid(
              "broadcast join cannot follow a probe-side exchange");
        }
        const size_t ordinal = static_cast<size_t>(join.build_ordinal);
        if (ordinal != next_build || ordinal >= build_files.size()) {
          co_return Status::Invalid("join build ordinal has no file list");
        }
        ++next_build;

        // ---- Build side. ----
        auto build_local = co_await RunScanPipeline(
            env, build_files[ordinal],
            MakeScanOptions(join.build_scan_projection,
                            join.build_scan_filter, fragment.chunk_bytes),
            join.build_ops, join.build_ops.size(), nullptr, "scan-build");
        if (!build_local.ok()) co_return build_local.status();
        TableChunk build_chunk = *std::move(build_local);
        if (partitioned) {
          auto build_side = co_await run_exchange(join.build_exchange,
                                                  std::move(build_chunk));
          if (!build_side.ok()) co_return build_side.status();
          build_chunk = *std::move(build_side);

          auto probe_side = co_await run_exchange(
              *pending_exchange->exchange, std::move(current));
          if (!probe_side.ok()) co_return probe_side.status();
          current = *std::move(probe_side);
        }
        pending_exchange = nullptr;

        // ---- Join the pair. ----
        uint64_t join_span = obs::Begin(env.tracer(), env.trace_span(),
                                        "join", "join");
        if (join_span != 0) {
          env.tracer()->AddArg(join_span, "ordinal",
                               static_cast<int64_t>(ordinal));
        }
        if (current.num_columns() == 0) {
          // No probe rows reached this worker from anywhere: schema
          // unknown, output empty either way.
          current = TableChunk();
        } else if (build_chunk.num_columns() == 0) {
          // No build rows here, so no probe row can match (partitioned:
          // equal keys hash to the same worker; broadcast: this worker
          // holds the whole — empty — build relation). A semi join keeps
          // the probe schema; an inner join's output schema is unknowable
          // without the build columns.
          current = join.type == engine::JoinType::kLeftSemi
                        ? TableChunk::Empty(current.schema())
                        : TableChunk();
        } else {
          std::vector<int> probe_cols, build_cols;
          for (size_t k = 0; k < join.probe_keys.size(); ++k) {
            int pc = current.schema()->FieldIndex(join.probe_keys[k]);
            int bc = build_chunk.schema()->FieldIndex(join.build_keys[k]);
            if (pc < 0 || bc < 0) {
              co_return Status::Invalid("join key column not found: " +
                                        (pc < 0 ? join.probe_keys[k]
                                                : join.build_keys[k]));
            }
            probe_cols.push_back(pc);
            build_cols.push_back(bc);
          }
          co_await env.Compute(static_cast<double>(build_chunk.num_rows() +
                                                   current.num_rows()) *
                               kJoinCpuPerRow * env.data_scale);
          auto joined = engine::HashJoin(current, probe_cols, build_chunk,
                                         build_cols, join.type);
          if (!joined.ok()) co_return joined.status();
          co_await env.Compute(static_cast<double>(joined->num_rows()) *
                               kJoinCpuPerRow * env.data_scale);
          current = *std::move(joined);
        }
        env.registry().Add(obs::Metric::kRowsJoined,
                           static_cast<int64_t>(current.num_rows()));
        if (join_span != 0) {
          env.tracer()->AddArg(join_span, "rows",
                               static_cast<int64_t>(current.num_rows()));
          env.tracer()->EndSpan(join_span);
        }
        build_chunk = TableChunk();
        break;
      }
      case PlanOp::Kind::kFilter:
      case PlanOp::Kind::kMap:
      case PlanOp::Kind::kSelect: {
        // A schema-less empty pipeline cannot resolve columns; row ops on
        // it are no-ops.
        if (current.num_columns() == 0) break;
        co_await env.Compute(static_cast<double>(current.num_rows()) *
                             kRowOpCpuPerRow * env.data_scale);
        auto next = ApplyRowOp(op, std::move(current));
        if (!next.ok()) co_return next.status();
        current = *std::move(next);
        break;
      }
      case PlanOp::Kind::kAggregate: {
        engine::HashAggregator agg(op.group_by, op.aggs);
        if (current.num_columns() != 0) {
          co_await env.Compute(static_cast<double>(current.num_rows()) *
                               kAggCpuPerRow * env.data_scale);
          if (current.num_rows() > 0) {
            CO_RETURN_NOT_OK(agg.ConsumeInput(current));
          }
        }
        co_return agg.PartialState();
      }
    }
  }
  co_return current;
}

/// Sends the (success or error) result message carrying the attempt's
/// registry, spilling large payloads to S3.
sim::Async<Status> SendResult(cloud::WorkerEnv& env,
                              const InvocationPayload& payload,
                              ResultMessage message) {
  cloud::EnvSpan span(&env, "worker", "send-result");
  // Copied before the spill PUT: the message reports the attempt's work,
  // not the requests that deliver it.
  message.metrics = env.registry();
  if (message.inline_result.size() > kInlineResultLimit) {
    cloud::S3Client client(env.services().s3, env.net());
    message.spill_bucket = payload.plan_bucket;
    // Attempt-stable key: a re-run attempt overwrites with byte-identical
    // content (last-writer-wins PUT), so whichever result message the
    // driver takes first points at valid bytes.
    message.spill_key = "results/" + payload.query_id + "/" +
                        std::to_string(message.worker_id);
    Status put = co_await client.Put(
        message.spill_bucket, message.spill_key,
        Buffer::FromVector(std::move(message.inline_result)));
    message.inline_result.clear();
    if (!put.ok()) {
      message.status_code = put.code();
      message.status_message = "result spill failed: " + put.message();
      message.spill_bucket.clear();
      message.spill_key.clear();
    }
  }
  co_return co_await env.services().sqs->Send(
      env.net(), payload.result_queue, message.Serialize());
}

sim::Async<Status> WorkerMain(cloud::WorkerEnv& env, std::string raw) {
  auto payload_or = InvocationPayload::Parse(raw);
  if (!payload_or.ok()) {
    // Without a payload there is no result queue to report to.
    co_return payload_or.status();
  }
  InvocationPayload payload = *std::move(payload_or);
  env.data_scale = payload.data_scale;
  env.metrics().worker_id = payload.self.worker_id;
  env.metrics().attempt = payload.self.attempt;
  env.metrics().query_id = payload.query_id;
  env.hedge_config().enabled = payload.hedge_gets;

  // The attempt's root span: every operation span below parents under it,
  // and it carries the worker's Chrome track plus its drawn fate.
  cloud::EnvSpan worker_span(&env, "worker", "worker");
  if (worker_span.id() != 0) {
    obs::Tracer* t = env.tracer();
    t->SetTrack(worker_span.id(),
                static_cast<int>(payload.self.worker_id) + 1);
    t->AddArg(worker_span.id(), "worker_id",
              static_cast<int64_t>(payload.self.worker_id));
    t->AddArg(worker_span.id(), "attempt",
              static_cast<int64_t>(payload.self.attempt));
    if (env.fate().crash_site != cloud::CrashSite::kNone) {
      t->AddArg(worker_span.id(), "fault.crash_armed",
                static_cast<int64_t>(env.fate().crash_site));
    }
    if (env.fate().cpu_factor < 1.0 || env.fate().net_factor < 1.0) {
      t->AddArgF(worker_span.id(), "fault.straggler_cpu",
                 env.fate().cpu_factor);
      t->AddArgF(worker_span.id(), "fault.straggler_net",
                 env.fate().net_factor);
    }
  }

  // ---- Invocation tree: start the next generations first (§4.2). ----
  // Children derive from the payload's subtree range
  // (core/invocation_tree.h). An invoker-loss fate consumed inside marks
  // the environment crashed — the branch dies silently, exactly like a
  // worker crash.
  const bool has_children =
      payload.tree.subtree_end > payload.self.worker_id + 1;
  if (has_children) {
    cloud::EnvSpan invoke_span(&env, "worker", "invoke-children");
    Status invoked = co_await InvokeTreeChildren(env, payload);
    if (!invoked.ok()) {
      LAMBADA_LOG(Warning) << "child invocation failed: "
                           << invoked.ToString();
    }
    if (env.crashed()) {
      co_return Status::Cancelled("injected invoker crash (fault plan)");
    }
  }

  ResultMessage result;
  result.query_id = payload.query_id;
  result.worker_id = payload.self.worker_id;
  result.attempt = payload.self.attempt;

  // ---- Fetch the plan fragment from shared storage. ----
  Result<PlanFragment> fragment = Status::Internal("plan not loaded");
  {
    cloud::EnvSpan fetch_span(&env, "worker", "fetch-plan");
    cloud::S3Client client(env.services().s3, env.net());
    auto plan_bytes =
        co_await client.Get(payload.plan_bucket, payload.plan_key);
    if (plan_bytes.ok()) {
      fragment = PlanFragment::Deserialize((*plan_bytes)->data(),
                                           (*plan_bytes)->size());
    } else {
      fragment = plan_bytes.status();
    }
  }
  if (!fragment.ok()) {
    result.status_code = fragment.status().code();
    result.status_message = fragment.status().message();
    co_return co_await SendResult(env, payload, std::move(result));
  }

  // ---- Execute. ----
  double exec_start = env.sim()->Now();
  auto out = co_await ExecuteFragment(env, *fragment, payload);
  env.registry().Set(obs::Metric::kProcessingTime,
                     env.sim()->Now() - exec_start);
  // ---- Fault plan: an invocation fated to crash dies silently. ----
  // A crash consumed mid-exchange surfaces as env.crashed(); fragments
  // with no exchange (nothing consumed the armed site) die here instead,
  // just before reporting. Either way no result message is sent — the
  // driver only learns of the loss through its progress deadlines.
  if (env.crashed() ||
      env.MaybeCrash(cloud::CrashSite::kBeforeExchangeWrites) ||
      env.MaybeCrash(cloud::CrashSite::kDuringExchangeWrites) ||
      env.MaybeCrash(cloud::CrashSite::kAfterExchangeWrites)) {
    co_return Status::Cancelled("injected worker crash (fault plan)");
  }
  if (!out.ok()) {
    result.status_code = out.status().code();
    result.status_message = out.status().message();
  } else {
    result.inline_result = engine::SerializeChunk(*out);
  }
  co_return co_await SendResult(env, payload, std::move(result));
}

}  // namespace

cloud::Handler MakeWorkerHandler() { return WorkerMain; }

}  // namespace lambada::core
