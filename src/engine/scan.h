#ifndef LAMBADA_ENGINE_SCAN_H_
#define LAMBADA_ENGINE_SCAN_H_

#include <functional>
#include <string>
#include <vector>

#include "cloud/faas.h"
#include "common/status.h"
#include "engine/expr.h"
#include "engine/table.h"
#include "format/reader.h"
#include "format/source.h"
#include "obs/metrics.h"
#include "sim/async.h"

namespace lambada::engine {

/// One input file of a scan.
struct FileRef {
  std::string bucket;
  std::string key;
};

/// Configuration of the S3 scan operator (Section 4.3.2). The scan runs
/// the paper's four levels of download concurrency:
///   (1) chunked requests within one read      -> source.chunk_bytes/conns
///   (2) concurrent column chunks of one group -> kColumnFetchParallelism
///   (3) concurrent row groups                 -> kRowGroupParallelism
///   (4) metadata of all files ahead of data   -> always prefetched
/// Only the request size varies per query; levels (2)-(4) and the
/// row-group IO coalescing budget are constants of scan.cc.
struct ScanOptions {
  /// Columns to materialize (projection push-down). Empty = all.
  std::vector<std::string> projection;
  /// Predicate for min/max row-group pruning, dictionary-code filtering
  /// AND residual evaluation. Null = scan everything.
  ExprPtr filter;
  format::S3Source::Options source;
};

/// Metrics reported by one scan execution, kept in the shared registry
/// under the scan.* names (see src/obs/metrics.h). The accessors cover the
/// counters callers read.
struct ScanStats {
  obs::MetricsRegistry registry;

  int64_t files() const { return registry.counter(obs::Metric::kScanFiles); }
  int64_t row_groups_total() const {
    return registry.counter(obs::Metric::kRowGroupsTotal);
  }
  int64_t row_groups_pruned() const {
    return registry.counter(obs::Metric::kRowGroupsPruned);
  }
  /// Rows decoded (before residual filter).
  int64_t rows_scanned() const {
    return registry.counter(obs::Metric::kRowsScanned);
  }
  /// Rows after the residual filter.
  int64_t rows_emitted() const {
    return registry.counter(obs::Metric::kRowsEmitted);
  }
  int64_t get_requests() const {
    return registry.counter(obs::Metric::kScanGetRequests);
  }
  /// Modeled bytes fetched from storage (footers + column-chunk extents,
  /// including coalescing gaps, times each object's virtual scale): the
  /// post-encoding bytes moved, the number the paper's Figure 7/11
  /// tradeoffs are about. Equals real bytes on unscaled data.
  int64_t bytes_moved() const {
    return registry.counter(obs::Metric::kScanBytesMoved);
  }
  /// Rows dropped by dictionary-code predicate evaluation in the reader,
  /// before materialization and the residual filter.
  int64_t rows_dict_filtered() const {
    return registry.counter(obs::Metric::kRowsDictFiltered);
  }
};

/// Per-row CPU cost of the residual filter + downstream chunk handoff in
/// the fused pipeline (vCPU-seconds per row). Calibrated so that a full
/// Q1-style scan of a 500 MB file takes ~2-3 s of single-vCPU time
/// together with decompression (Figure 11).
inline constexpr double kFilterCpuSecondsPerRow = 4e-9;

/// Scans .lpq files from simulated S3 inside a serverless worker,
/// applying projection push-down and statistics-based row-group pruning,
/// and feeds surviving chunks to `sink`. The sink typically is the fused
/// (JIT-substituted) pipeline: filter residual -> aggregate.
sim::Async<Result<ScanStats>> S3ParquetScan(
    cloud::WorkerEnv& env, std::vector<FileRef> files,
    const ScanOptions& options,
    std::function<Status(const TableChunk&)> sink);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_SCAN_H_
