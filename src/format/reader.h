#ifndef LAMBADA_FORMAT_READER_H_
#define LAMBADA_FORMAT_READER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/table.h"
#include "format/metadata.h"
#include "format/source.h"
#include "obs/trace.h"
#include "sim/async.h"

namespace lambada::format {

/// Bridge from real work done by the reader (decompressing, decoding) to
/// the simulated worker CPU. `compute` charges vCPU-seconds of virtual
/// time; `scale` inflates the work for virtually-scaled datasets.
/// Host-side tools leave `compute` unset.
struct ComputeHook {
  std::function<sim::Async<void>(double vcpu_seconds)> compute;
  double scale = 1.0;

  sim::Async<void> Charge(double vcpu_seconds) const {
    if (compute && vcpu_seconds > 0) {
      return compute(vcpu_seconds * scale);
    }
    return Noop();
  }

 private:
  static sim::Async<void> Noop() { co_return; }
};

struct ReaderOptions {
  ComputeHook cpu;
  /// Required for concurrent column-chunk fetches; when null, fetches are
  /// sequential (host-side tools).
  sim::Simulator* sim = nullptr;
  /// Row-group IO coalescing budget: a projected column chunk merges into
  /// the preceding read when doing so grows that read by at most this
  /// many bytes (the skipped hole plus the chunk itself). At S3-class
  /// first-byte latencies, transferring up to ~1 MiB extra is cheaper
  /// than another request round trip — but only for latency-dominated
  /// (small) chunks; a large chunk keeps its own read so concurrent
  /// fetches still overlap its transfer. 0 disables coalescing (one read
  /// per chunk). The scan scales this down for virtually-scaled objects.
  int64_t coalesce_gap_bytes = 1024 * 1024;
  /// Optional tracing sink: ReadRowGroup emits per-extent "get"/"decode"
  /// and "dict-filter" child spans under the span id the caller passes.
  obs::Tracer* tracer = nullptr;
};

/// Closed value interval [lo, hi] a column's rows must intersect to
/// survive the scan's filter (mirrors engine::Interval, kept separate so
/// the format layer does not depend on the expression engine). Used by
/// ReadRowGroup to evaluate the bound directly on dictionary codes.
struct ColumnBound {
  double lo = 0;
  double hi = 0;
};

/// Reads .lpq files: one tail read for the footer, then one ranged read per
/// projected column chunk — the request pattern of the paper's Parquet scan
/// (Figure 8). Decompression charges CPU through the ComputeHook.
class FileReader {
 public:
  /// Opens the file: fetches and parses the footer.
  static sim::Async<Result<std::shared_ptr<FileReader>>> Open(
      std::shared_ptr<RandomAccessSource> source,
      ReaderOptions options = {});

  const FileMetadata& metadata() const { return metadata_; }
  const engine::SchemaPtr& schema() const { return schema_; }
  int num_row_groups() const {
    return static_cast<int>(metadata_.row_groups.size());
  }

  /// Reads and decodes the given columns (by index) of row group `rg`.
  /// Small adjacent column chunks coalesce into extents
  /// (ReaderOptions::coalesce_gap_bytes); extents are fetched with up to
  /// `fetch_parallelism` concurrent reads — concurrency level (2) of
  /// Section 4.3.2.
  ///
  /// `bounds` (optional, keyed by file-schema column index) pushes the
  /// scan's per-column value intervals into the decode: a kDict chunk's
  /// sorted dictionary maps each interval to a contiguous code range, so
  /// rows are tested on their small integer codes before materialization
  /// and non-qualifying rows never reach the residual filter. Bounds are
  /// conservative (rows outside an interval cannot satisfy the filter),
  /// so pre-filtering here never changes query results; columns that are
  /// not dict-encoded ignore their bound. Dropped rows accumulate in
  /// rows_dict_filtered().
  ///
  /// `trace_span` (with ReaderOptions::tracer set) parents the read's
  /// extent-GET/decode/dict-filter spans — typically the scan's per-row-
  /// group span.
  ///
  /// `download_slots` (optional; the scan's concurrency level (3)) bounds
  /// the row groups downloading at once. The read takes one slot before
  /// its first GET and hands it on as soon as its last GET lands, while
  /// the extents that landed last are still decompressing, so the next
  /// group's transfers overlap this group's decode. Every path out of the
  /// read, errors included, has handed its slot on.
  sim::Async<Result<engine::TableChunk>> ReadRowGroup(
      int rg, std::vector<int> columns, int fetch_parallelism = 1,
      const std::map<int, ColumnBound>* bounds = nullptr,
      uint64_t trace_span = 0, sim::Semaphore* download_slots = nullptr);

  /// Bytes of the ranged reads so far: the data extents (coalescing gap
  /// bytes included) and a footer too large for the tail probe. An object
  /// store bills these at the object's virtual scale; the tail probe,
  /// billed at its real size (or served by a metadata cache), is not
  /// counted here.
  int64_t bytes_fetched() const { return bytes_fetched_; }
  /// Rows dropped by dictionary-code predicate evaluation.
  int64_t rows_dict_filtered() const { return rows_dict_filtered_; }

 private:
  /// One ranged read covering one or more coalesced column chunks.
  struct Extent {
    uint64_t begin = 0;
    uint64_t end = 0;
    BufferPtr data;
  };

  /// A ReadRowGroup's download slot: held until the read's last GET lands.
  struct DownloadSlot {
    sim::Semaphore* slots = nullptr;
    size_t gets_left = 0;

    void Landed() {
      if (--gets_left == 0) HandOn();
    }
    /// Releases the slot once; later calls do nothing.
    void HandOn() {
      if (slots != nullptr) std::exchange(slots, nullptr)->Release();
    }
  };

  FileReader(std::shared_ptr<RandomAccessSource> source,
             ReaderOptions options, FileMetadata metadata)
      : source_(std::move(source)),
        options_(std::move(options)),
        metadata_(std::move(metadata)),
        schema_(std::make_shared<engine::Schema>(metadata_.schema)) {}

  /// Decompresses one column chunk's bytes and charges the codec CPU.
  sim::Async<Result<std::vector<uint8_t>>> DecompressChunk(
      const ColumnChunkMeta& cc, const uint8_t* raw, size_t raw_size);

  /// Fetches one extent and immediately decompresses AND decodes the
  /// chunks it covers (projection positions `chunk_positions`), so both
  /// codec and decode CPU overlap the other extents' transfers. Columns
  /// flagged in `keep_bytes` (dict chunks awaiting code-range predicate
  /// evaluation) stop at decompressed bytes in `chunk_data`; the rest
  /// decode straight into `decoded`. The GET's landing is reported to
  /// `slot` before any decoding. The raw extent buffer is freed
  /// afterwards; the first error lands in `error`.
  sim::Async<void> FetchExtent(Extent* extent,
                               const std::vector<size_t>& chunk_positions,
                               const std::vector<int>& columns,
                               const RowGroupMeta& rg_meta,
                               const std::vector<uint8_t>& keep_bytes,
                               std::vector<std::vector<uint8_t>>* chunk_data,
                               std::vector<std::optional<engine::Column>>*
                                   decoded,
                               Status* error, uint64_t trace_span,
                               DownloadSlot* slot);

  std::shared_ptr<RandomAccessSource> source_;
  ReaderOptions options_;
  FileMetadata metadata_;
  engine::SchemaPtr schema_;
  int64_t bytes_fetched_ = 0;
  int64_t rows_dict_filtered_ = 0;
};

}  // namespace lambada::format

#endif  // LAMBADA_FORMAT_READER_H_
