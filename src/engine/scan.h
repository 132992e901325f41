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
///   (3) row groups downloading at once        -> kRowGroupParallelism
///   (4) metadata of all files ahead of data   -> always prefetched
/// A row group hands its level-(3) slot on when its last GET lands and
/// decompresses on without it, so the next groups download meanwhile; at
/// most 2 x kRowGroupParallelism groups are between start and emit.
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

/// Per-row CPU cost of the residual filter + downstream chunk handoff in
/// the fused pipeline (vCPU-seconds per row). Calibrated so that a full
/// Q1-style scan of a 500 MB file takes ~2-3 s of single-vCPU time
/// together with decompression (Figure 11).
inline constexpr double kFilterCpuSecondsPerRow = 4e-9;

/// Scans .lpq files from simulated S3 inside a serverless worker,
/// applying projection push-down and statistics-based row-group pruning,
/// and feeds surviving chunks to `sink`. The sink typically is the fused
/// (JIT-substituted) pipeline: filter residual -> aggregate. Returns the
/// scan's metrics under the scan.* names of src/obs/metrics.h; its byte
/// counter holds the bytes the store billed: ranged reads at each object's
/// virtual scale, footer tails at their real size.
sim::Async<Result<obs::MetricsRegistry>> S3ParquetScan(
    cloud::WorkerEnv& env, std::vector<FileRef> files,
    const ScanOptions& options,
    std::function<Status(const TableChunk&)> sink);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_SCAN_H_
