#include "engine/scan.h"

#include <memory>
#include <optional>

namespace lambada::engine {

namespace {

using format::FileReader;
using format::S3Source;

/// Row groups of one file downloading at once (concurrency level 3). A
/// group hands its slot on when its last GET lands.
constexpr int kRowGroupParallelism = 2;
/// Row groups of one file between start and emit: the pair downloading
/// plus the pair still decompressing behind it.
constexpr int kRowGroupResidency = 2 * kRowGroupParallelism;
/// Extents of one row group fetched at once (level 2).
constexpr int kColumnFetchParallelism = 4;
/// Row-group IO coalescing budget in MODELED bytes: a projected column
/// chunk shares the preceding ranged read when that grows it by at most
/// this much (format::ReaderOptions::coalesce_gap_bytes).
constexpr int64_t kCoalesceGapBytes = 1024 * 1024;

/// Per-file state shared between the metadata prefetcher and the scan loop.
struct FileState {
  FileRef ref;
  double scale = 1.0;
  std::shared_ptr<S3Source> source;
  Result<std::shared_ptr<FileReader>> reader = Status::Internal("pending");
  std::unique_ptr<sim::Event> ready;
};

sim::Async<void> OpenReader(FileState* state,
                            format::ReaderOptions reader_options) {
  state->reader = co_await FileReader::Open(state->source, reader_options);
  state->ready->Set();
}

/// True if the row group may contain rows satisfying the bounds.
bool RowGroupSurvives(const format::RowGroupMeta& rg,
                      const engine::Schema& schema,
                      const std::map<std::string, Interval>& bounds) {
  for (const auto& [column, interval] : bounds) {
    int idx = schema.FieldIndex(column);
    if (idx < 0) continue;  // Unknown column: cannot prune.
    const auto& stats = rg.columns[static_cast<size_t>(idx)].stats;
    if (!stats.valid) continue;
    double min_v, max_v;
    if (schema.field(static_cast<size_t>(idx)).type == DataType::kInt64) {
      min_v = static_cast<double>(stats.min_i64);
      max_v = static_cast<double>(stats.max_i64);
    } else {
      min_v = stats.min_f64;
      max_v = stats.max_f64;
    }
    if (!interval.Intersects(min_v, max_v)) return false;
  }
  return true;
}

}  // namespace

sim::Async<Result<obs::MetricsRegistry>> S3ParquetScan(
    cloud::WorkerEnv& env, std::vector<FileRef> files,
    const ScanOptions& options,
    std::function<Status(const TableChunk&)> sink) {
  obs::MetricsRegistry metrics;
  auto* sim = env.sim();
  auto& services = env.services();

  // Build per-file state. The object's virtual scale drives both byte
  // accounting (in the store) and the CPU hook below.
  // Shared with the prefetcher coroutine, which may outlive an early
  // error return from this scan.
  auto states = std::make_shared<std::vector<FileState>>(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    (*states)[i].ref = files[i];
    auto scale = services.s3->Scale(files[i].bucket, files[i].key);
    (*states)[i].scale = scale.ok() ? *scale : 1.0;
    cloud::S3Client client(services.s3, env.net());
    // chunk_bytes is a MODELED request size (the planner derives it from
    // virtual byte counts), but S3Source splits real ranges — so descale
    // it per file, like the coalescing budget below: a x250-scaled file
    // then issues ~virtual_extent/chunk_bytes requests, the pattern the
    // Figure 7/8 tradeoffs are about, instead of one giant GET.
    format::S3Source::Options src = options.source;
    // Serving hooks ride on the worker environment, not the plan: the
    // shared-scan broker and metadata cache are host-side and default off.
    src.share = env.scan_broker;
    src.meta = env.meta_cache;
    if (src.chunk_bytes > 0 && (*states)[i].scale > 1.0) {
      src.chunk_bytes = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(src.chunk_bytes) /
                                  (*states)[i].scale));
    }
    (*states)[i].source = std::make_shared<S3Source>(
        client, files[i].bucket, files[i].key, src);
    (*states)[i].ready = std::make_unique<sim::Event>(sim);
  }

  cloud::WorkerEnv* env_ptr = &env;
  auto reader_options_for = [env_ptr, sim](const FileState& st) {
    format::ReaderOptions ro;
    ro.sim = sim;
    ro.cpu.compute = [env_ptr](double vcpu) { return env_ptr->Compute(vcpu); };
    ro.cpu.scale = st.scale;
    // The coalescing budget is a transfer-time-vs-request-latency
    // breakeven in MODELED bytes. A virtually-scaled object transfers
    // scale x more virtual bytes per real byte, so the budget on real
    // file offsets shrinks by the scale — without this, merging across a
    // 100 KB real gap on a x250-scaled file would buy one request with a
    // ~25 MB virtual transfer.
    ro.coalesce_gap_bytes = static_cast<int64_t>(
        static_cast<double>(kCoalesceGapBytes) / std::max(1.0, st.scale));
    ro.tracer = env_ptr->tracer();
    return ro;
  };

  // Level (4): a dedicated thread downloads the metadata for all files
  // that should be scanned, hiding the latency of these small requests.
  // The prefetcher references the worker env (CPU, NIC); the scan must
  // not return — even on error — while it is still running.
  auto prefetch_done = std::make_shared<sim::Event>(sim);
  sim::Spawn([](std::shared_ptr<std::vector<FileState>> sts,
                std::shared_ptr<sim::Event> done,
                std::function<format::ReaderOptions(const FileState&)>
                    make_opts) -> sim::Async<void> {
    for (auto& st : *sts) {
      co_await OpenReader(&st, make_opts(st));
    }
    done->Set();
  }(states, prefetch_done, reader_options_for));

  auto bounds = ExtractColumnBounds(options.filter);
  Status scan_error = Status::OK();
  // Row-group task spans parent here (the scan span current at entry), not
  // at env.trace_span() task-run time: a concurrently running sibling could
  // have swapped the env's current span by then.
  const uint64_t scan_span = env.trace_span();

  for (auto& st : *states) {
    metrics.Add(obs::Metric::kScanFiles, 1);
    co_await st.ready->Wait();
    if (!st.reader.ok()) {
      scan_error = st.reader.status();
      break;
    }
    const std::shared_ptr<FileReader>& reader = *st.reader;
    const engine::Schema& file_schema = reader->metadata().schema;

    // Resolve the projection against this file's schema.
    std::vector<int> proj;
    if (options.projection.empty()) {
      for (size_t c = 0; c < file_schema.num_fields(); ++c) {
        proj.push_back(static_cast<int>(c));
      }
    } else {
      for (const auto& name : options.projection) {
        int idx = file_schema.FieldIndex(name);
        if (idx < 0) {
          scan_error =
              Status::Invalid("scan projection column not in file: " + name);
          break;
        }
        proj.push_back(idx);
      }
    }
    if (!scan_error.ok()) break;

    // Push the filter's per-column value intervals into the reader (keyed
    // by file-schema column index): dict-encoded chunks evaluate them on
    // dictionary codes before materialization.
    std::map<int, format::ColumnBound> dict_bounds;
    if (options.filter != nullptr) {
      for (const auto& [column, interval] : bounds) {
        int idx = file_schema.FieldIndex(column);
        if (idx >= 0) {
          dict_bounds[idx] = format::ColumnBound{interval.lo, interval.hi};
        }
      }
    }

    // Prune row groups on min/max statistics (Section 5.3): workers whose
    // files are fully pruned return after the metadata round trip.
    std::vector<int> surviving;
    for (int rg = 0; rg < reader->num_row_groups(); ++rg) {
      metrics.Add(obs::Metric::kRowGroupsTotal, 1);
      if (RowGroupSurvives(reader->metadata().row_groups[rg], file_schema,
                           bounds)) {
        surviving.push_back(rg);
      } else {
        metrics.Add(obs::Metric::kRowGroupsPruned, 1);
      }
    }

    // Level (3): up to kRowGroupParallelism row groups download at once.
    // ReadRowGroup hands a group's download slot on when its last GET
    // lands, so the next pair downloads while this pair decompresses; a
    // group holds one of kRowGroupResidency slots from start to emit.
    sim::Semaphore downloads(sim, kRowGroupParallelism);
    sim::Semaphore residency(sim, kRowGroupResidency);
    Status sink_status = Status::OK();
    // Completed chunks park here until every lower-indexed row group has
    // been emitted: the sink runs synchronously (zero virtual time), so
    // flushing in row-group index order makes the downstream accumulation
    // order independent of download completion order — worker partials stay
    // byte-identical under straggler/fault timing perturbations — without
    // changing the simulated schedule.
    std::vector<std::optional<TableChunk>> pending(surviving.size());
    size_t next_emit = 0;
    std::vector<sim::Async<void>> tasks;
    tasks.reserve(surviving.size());
    for (size_t slot = 0; slot < surviving.size(); ++slot) {
      int rg = surviving[slot];
      tasks.push_back([](cloud::WorkerEnv* e, const ScanOptions* opts,
                         std::shared_ptr<FileReader> rdr, double scale,
                         int rg_idx, std::vector<int> proj_cols,
                         const std::map<int, format::ColumnBound>* bnds,
                         sim::Semaphore* dl, sim::Semaphore* res,
                         obs::MetricsRegistry* out,
                         const std::function<Status(const TableChunk&)>* snk,
                         Status* sink_st,
                         std::vector<std::optional<TableChunk>>* pend,
                         size_t* next_out, size_t my_slot,
                         const std::string* file_key,
                         uint64_t parent_span) -> sim::Async<void> {
        co_await res->Acquire();
        obs::Tracer* tracer = e->tracer();
        const double rg_start = e->sim()->Now();
        uint64_t rg_span =
            obs::Begin(tracer, parent_span, "scan", "rowgroup");
        if (rg_span != 0) {
          tracer->AddArg(rg_span, "key", *file_key);
          tracer->AddArg(rg_span, "rg", static_cast<int64_t>(rg_idx));
        }
        // Level (2): column chunks of this group fetched concurrently
        // (coalesced into extents), with dict-code predicate push-down.
        auto chunk = co_await rdr->ReadRowGroup(
            rg_idx, proj_cols, kColumnFetchParallelism, bnds, rg_span, dl);
        if (!chunk.ok()) {
          if (sink_st->ok()) *sink_st = chunk.status();
          obs::End(tracer, rg_span);
          res->Release();
          co_return;
        }
        Status mem = e->ReserveMemory(chunk->memory_bytes());
        if (!mem.ok()) {
          if (sink_st->ok()) *sink_st = mem;
          obs::End(tracer, rg_span);
          res->Release();
          co_return;
        }
        out->Add(obs::Metric::kRowsScanned,
                 static_cast<int64_t>(chunk->num_rows()));
        if (rg_span != 0) {
          tracer->AddArg(rg_span, "rows",
                         static_cast<int64_t>(chunk->num_rows()));
        }
        TableChunk result = *std::move(chunk);
        if (opts->filter != nullptr) {
          // Residual predicate on the decoded rows; charged as pipeline
          // CPU work (the JIT-compiled tight loop of the paper).
          co_await e->Compute(static_cast<double>(result.num_rows()) *
                              kFilterCpuSecondsPerRow * scale);
          auto filtered = FilterRows(result, *opts->filter);
          if (!filtered.ok()) {
            if (sink_st->ok()) *sink_st = filtered.status();
            e->ReleaseMemory(result.memory_bytes());
            obs::End(tracer, rg_span);
            res->Release();
            co_return;
          }
          int64_t before = result.memory_bytes();
          result = *std::move(filtered);
          e->ReleaseMemory(before - result.memory_bytes());
        }
        (*pend)[my_slot] = std::move(result);
        while (*next_out < pend->size() && (*pend)[*next_out].has_value()) {
          TableChunk ready = *std::move((*pend)[*next_out]);
          (*pend)[*next_out].reset();
          ++*next_out;
          out->Add(obs::Metric::kRowsEmitted,
                   static_cast<int64_t>(ready.num_rows()));
          Status s = (*snk)(ready);
          if (!s.ok() && sink_st->ok()) *sink_st = s;
          e->ReleaseMemory(ready.memory_bytes());
        }
        out->Observe(obs::Metric::kScanRowGroupTime,
                     e->sim()->Now() - rg_start);
        obs::End(tracer, rg_span);
        res->Release();
      }(&env, &options, reader, st.scale, rg, proj, &dict_bounds, &downloads,
        &residency, &metrics, &sink, &sink_status, &pending, &next_emit, slot,
        &st.ref.key, scan_span));
    }
    co_await sim::WhenAllVoid(sim, std::move(tasks));
    // A failed row group leaves a hole that blocks the in-order flush;
    // release whatever stayed parked behind it.
    for (auto& leftover : pending) {
      if (leftover.has_value()) {
        env.ReleaseMemory(leftover->memory_bytes());
        leftover.reset();
      }
    }
    // Count the bytes as the store bills them: ranged reads at the
    // object's virtual scale, the footer tail at its real size.
    metrics.Add(obs::Metric::kScanBytesMoved,
                static_cast<int64_t>(
                    static_cast<double>(reader->bytes_fetched()) * st.scale) +
                    st.source->tail_bytes());
    metrics.Add(obs::Metric::kRowsDictFiltered, reader->rows_dict_filtered());
    if (!sink_status.ok()) {
      scan_error = sink_status;
      break;
    }
    metrics.Add(obs::Metric::kScanGetRequests, st.source->request_count());
  }
  // Drain the prefetcher before returning so nothing outlives the worker.
  co_await prefetch_done->Wait();
  if (!scan_error.ok()) co_return scan_error;
  co_return metrics;
}

}  // namespace lambada::engine
