#include "format/reader.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "format/encoding.h"

namespace lambada::format {

using engine::Column;
using engine::TableChunk;

namespace {

/// Tail bytes fetched speculatively to bootstrap the footer; one request
/// suffices when the footer fits (it nearly always does).
constexpr int64_t kFooterProbeBytes = 64 * 1024;

/// Maps a closed value interval [lo, hi] (doubles, possibly infinite) to
/// the closed integer interval [*lo_i, *hi_i] it admits. Returns false if
/// no int64 can qualify. Exact: the double->int64 edges are computed with
/// ceil/floor and explicit 2^63 overflow branches, so values beyond 2^53
/// are never mis-classified by double rounding (the residual filter is
/// exact, but rows dropped here never reach it).
bool IntIntervalOf(const ColumnBound& bound, int64_t* lo_i, int64_t* hi_i) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63 exactly.
  if (bound.lo >= kTwo63 || bound.hi < -kTwo63 || bound.lo > bound.hi) {
    return false;
  }
  *lo_i = bound.lo <= -kTwo63 ? std::numeric_limits<int64_t>::min()
                              : static_cast<int64_t>(std::ceil(bound.lo));
  *hi_i = bound.hi >= kTwo63 ? std::numeric_limits<int64_t>::max()
                             : static_cast<int64_t>(std::floor(bound.hi));
  return *lo_i <= *hi_i;
}

}  // namespace

sim::Async<Result<std::shared_ptr<FileReader>>> FileReader::Open(
    std::shared_ptr<RandomAccessSource> source, ReaderOptions options) {
  // One tail read bootstraps the footer (Section 4.3.2: "The library loads
  // this metadata with a single file read").
  auto tail = co_await source->ReadTail(kFooterProbeBytes);
  if (!tail.ok()) co_return tail.status();
  const BufferPtr& probe = tail->data;
  if (probe->size() < 12) co_return Status::IOError("file too small");
  const uint8_t* end = probe->data() + probe->size();
  if (std::memcmp(end - 4, kMagic, 4) != 0) {
    co_return Status::IOError("bad magic: not an lpq file");
  }
  uint32_t footer_len;
  std::memcpy(&footer_len, end - 8, 4);
  int64_t footer_end = tail->file_size - 8;
  int64_t footer_start = footer_end - static_cast<int64_t>(footer_len);
  if (footer_start < 4) co_return Status::IOError("corrupt footer length");

  BufferPtr footer;
  int64_t ranged_bytes = 0;
  int64_t probe_start = tail->file_size - static_cast<int64_t>(probe->size());
  if (footer_start >= probe_start) {
    footer = probe->Slice(static_cast<size_t>(footer_start - probe_start),
                          footer_len);
  } else {
    // Footer larger than the probe: one more ranged read.
    auto r = co_await source->ReadAt(footer_start, footer_len);
    if (!r.ok()) co_return r.status();
    footer = *r;
    ranged_bytes = static_cast<int64_t>(footer->size());
  }
  auto meta = FileMetadata::Parse(footer->data(), footer->size());
  if (!meta.ok()) co_return meta.status();
  // Footer parsing is cheap but not free.
  co_await options.cpu.Charge(static_cast<double>(footer->size()) / 200e6);
  auto reader = std::shared_ptr<FileReader>(
      new FileReader(std::move(source), std::move(options),
                     *std::move(meta)));
  reader->bytes_fetched_ = ranged_bytes;
  co_return reader;
}

sim::Async<Result<std::vector<uint8_t>>> FileReader::DecompressChunk(
    const ColumnChunkMeta& cc, const uint8_t* raw, size_t raw_size) {
  const auto& codec = compress::GetCodec(cc.codec);
  auto decompressed = codec.Decompress(raw, raw_size, cc.uncompressed_size);
  if (!decompressed.ok()) co_return decompressed.status();
  // Charge decompression CPU: the paper's Q1 is CPU-bound on exactly this.
  co_await options_.cpu.Charge(static_cast<double>(cc.uncompressed_size) *
                               codec.DecompressCpuSecondsPerByte());
  co_return *std::move(decompressed);
}

sim::Async<void> FileReader::FetchExtent(
    Extent* extent, const std::vector<size_t>& chunk_positions,
    const std::vector<int>& columns, const RowGroupMeta& rg_meta,
    const std::vector<uint8_t>& keep_bytes,
    std::vector<std::vector<uint8_t>>* chunk_data,
    std::vector<std::optional<engine::Column>>* decoded, Status* error,
    uint64_t trace_span, DownloadSlot* slot) {
  obs::Tracer* tracer = options_.tracer;
  uint64_t get_span = obs::Begin(tracer, trace_span, "scan", "get");
  if (get_span != 0) {
    tracer->AddArg(get_span, "offset", static_cast<int64_t>(extent->begin));
    tracer->AddArg(get_span, "bytes",
                   static_cast<int64_t>(extent->end - extent->begin));
  }
  auto raw = co_await source_->ReadAt(
      static_cast<int64_t>(extent->begin),
      static_cast<int64_t>(extent->end - extent->begin));
  obs::End(tracer, get_span);
  slot->Landed();
  if (!raw.ok()) {
    if (error->ok()) *error = raw.status();
    co_return;
  }
  extent->data = *std::move(raw);
  bytes_fetched_ += static_cast<int64_t>(extent->end - extent->begin);
  const size_t num_rows = static_cast<size_t>(rg_meta.num_rows);
  uint64_t decode_span = obs::Begin(tracer, trace_span, "scan", "decode");
  for (size_t k : chunk_positions) {
    const auto& cc = rg_meta.columns[static_cast<size_t>(columns[k])];
    auto bytes = co_await DecompressChunk(
        cc, extent->data->data() + (cc.offset - extent->begin),
        static_cast<size_t>(cc.compressed_size));
    if (!bytes.ok()) {
      if (error->ok()) *error = bytes.status();
      obs::End(tracer, decode_span);
      co_return;
    }
    if (keep_bytes[k] != 0) {
      (*chunk_data)[k] = *std::move(bytes);
      continue;
    }
    auto col = DecodeColumn(
        bytes->data(), bytes->size(),
        metadata_.schema.field(static_cast<size_t>(columns[k])).type,
        cc.encoding, num_rows);
    if (!col.ok()) {
      if (error->ok()) *error = col.status();
      obs::End(tracer, decode_span);
      co_return;
    }
    // Decoding (varint/delta/rle) cost, charged here so it overlaps the
    // other extents' transfers.
    co_await options_.cpu.Charge(static_cast<double>(num_rows) * 8.0 / 2e9);
    (*decoded)[k] = *std::move(col);
  }
  obs::End(tracer, decode_span);
  extent->data = nullptr;  // Only the decoded chunks survive.
}

sim::Async<Result<TableChunk>> FileReader::ReadRowGroup(
    int rg, std::vector<int> columns, int fetch_parallelism,
    const std::map<int, ColumnBound>* bounds, uint64_t trace_span,
    sim::Semaphore* download_slots) {
  if (rg < 0 || rg >= num_row_groups()) {
    co_return Status::OutOfRange("row group index out of range");
  }
  for (int c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= metadata_.schema.num_fields()) {
      co_return Status::OutOfRange("column index out of range");
    }
  }
  const auto& rg_meta = metadata_.row_groups[static_cast<size_t>(rg)];
  const size_t num_rows = static_cast<size_t>(rg_meta.num_rows);

  // ---- Plan extents: projected chunks in file order, coalescing
  // latency-dominated neighbors into one ranged read each. A merge may
  // grow the extent by at most the budget (the skipped hole PLUS the
  // incoming chunk): small encoded chunks — dictionaries, run lengths —
  // ride along for free, while a bandwidth-dominated chunk keeps its own
  // read so the fetch parallelism below still overlaps its transfer with
  // its neighbors' instead of serializing them into one connection.
  std::vector<size_t> order(columns.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rg_meta.columns[static_cast<size_t>(columns[a])].offset <
           rg_meta.columns[static_cast<size_t>(columns[b])].offset;
  });
  const uint64_t budget =
      static_cast<uint64_t>(std::max<int64_t>(0, options_.coalesce_gap_bytes));
  std::vector<Extent> extents;
  std::vector<size_t> extent_of(columns.size());  // Projection pos -> extent.
  for (size_t k : order) {
    const auto& cc = rg_meta.columns[static_cast<size_t>(columns[k])];
    uint64_t begin = cc.offset;
    uint64_t end = cc.offset + cc.compressed_size;
    if (!extents.empty() && budget > 0 && begin >= extents.back().begin &&
        std::max(end, extents.back().end) <= extents.back().end + budget) {
      extents.back().end = std::max(extents.back().end, end);
    } else {
      extents.push_back(Extent{begin, end, nullptr});
    }
    extent_of[k] = extents.size() - 1;
  }

  // ---- Fetch extents with bounded concurrency (when simulated) and
  // decompress each extent's chunks as soon as its bytes land, so the
  // codec CPU of one extent overlaps the transfers of the others — the
  // overlap the per-column reader had, kept across the coalescing
  // rewrite. The raw extent buffer is freed as soon as its chunks are
  // decompressed.
  std::vector<std::vector<size_t>> extent_chunks(extents.size());
  for (size_t k = 0; k < columns.size(); ++k) {
    extent_chunks[extent_of[k]].push_back(k);
  }
  // Columns awaiting dict-code predicate evaluation stop at decompressed
  // bytes (pass 1 decodes their views); everything else decodes inside
  // the concurrent fetches.
  std::vector<uint8_t> keep_bytes(columns.size(), 0);
  std::vector<std::optional<Column>> decoded(columns.size());
  if (bounds != nullptr) {
    for (size_t k = 0; k < columns.size(); ++k) {
      const auto& cc = rg_meta.columns[static_cast<size_t>(columns[k])];
      keep_bytes[k] =
          bounds->find(columns[k]) != bounds->end() &&
                  cc.encoding == Encoding::kDict &&
                  metadata_.schema.field(static_cast<size_t>(columns[k]))
                          .type == engine::DataType::kInt64
              ? 1
              : 0;
    }
  }
  std::vector<std::vector<uint8_t>> chunk_data(columns.size());
  sim::Simulator* sim = options_.sim;
  Status fetch_error = Status::OK();
  // The slot is taken only now, with the extents planned, and handed on
  // when the last GET lands (DownloadSlot::Landed), not when decoding ends.
  if (download_slots != nullptr) co_await download_slots->Acquire();
  DownloadSlot slot{download_slots, extents.size()};
  if (sim != nullptr && fetch_parallelism > 1 && extents.size() > 1) {
    sim::Semaphore gate(sim, fetch_parallelism);
    std::vector<sim::Async<void>> fetches;
    fetches.reserve(extents.size());
    for (size_t e = 0; e < extents.size(); ++e) {
      fetches.push_back([](FileReader* self, sim::Semaphore* g, Extent* ext,
                           const std::vector<size_t>* ks,
                           const std::vector<int>* cols,
                           const RowGroupMeta* meta,
                           const std::vector<uint8_t>* kb,
                           std::vector<std::vector<uint8_t>>* out,
                           std::vector<std::optional<Column>>* dec,
                           Status* err, uint64_t span,
                           DownloadSlot* ds) -> sim::Async<void> {
        co_await g->Acquire();
        co_await self->FetchExtent(ext, *ks, *cols, *meta, *kb, out, dec,
                                   err, span, ds);
        g->Release();
      }(this, &gate, &extents[e], &extent_chunks[e], &columns, &rg_meta,
        &keep_bytes, &chunk_data, &decoded, &fetch_error, trace_span,
        &slot));
    }
    co_await sim::WhenAllVoid(sim, std::move(fetches));
  } else {
    for (size_t e = 0; e < extents.size(); ++e) {
      co_await FetchExtent(&extents[e], extent_chunks[e], columns, rg_meta,
                           keep_bytes, &chunk_data, &decoded, &fetch_error,
                           trace_span, &slot);
      if (!fetch_error.ok()) break;
    }
  }
  // A read with no extents, or one that stopped at its first failed GET,
  // still holds its slot.
  slot.HandOn();
  if (!fetch_error.ok()) co_return fetch_error;

  auto proj_schema =
      std::make_shared<engine::Schema>(metadata_.schema.Project(columns));
  std::vector<bool> keep(num_rows, true);
  size_t dropped = 0;

  // ---- Dict-code predicate pass: the flagged columns' sorted
  // dictionaries map each pushed interval to a code range; rows are
  // tested on their codes, and an empty range proves the whole group
  // empty before any materialization.
  uint64_t df_span = 0;
  if (options_.tracer != nullptr &&
      std::find(keep_bytes.begin(), keep_bytes.end(), 1) !=
          keep_bytes.end()) {
    df_span = obs::Begin(options_.tracer, trace_span, "scan", "dict-filter");
  }
  for (size_t k = 0; k < columns.size(); ++k) {
    if (keep_bytes[k] == 0) continue;
    auto it = bounds->find(columns[k]);
    auto view =
        DecodeDictView(chunk_data[k].data(), chunk_data[k].size(), num_rows);
    if (!view.ok()) {
      if (df_span != 0) options_.tracer->EndSpan(df_span);
      co_return view.status();
    }
    co_await options_.cpu.Charge(static_cast<double>(num_rows) * 8.0 / 2e9);
    int64_t lo_i, hi_i;
    uint32_t lo_code = 0, hi_code = 0;
    if (IntIntervalOf(it->second, &lo_i, &hi_i)) {
      lo_code = static_cast<uint32_t>(
          std::lower_bound(view->values.begin(), view->values.end(), lo_i) -
          view->values.begin());
      hi_code = static_cast<uint32_t>(
          std::upper_bound(view->values.begin(), view->values.end(), hi_i) -
          view->values.begin());
    }
    if (lo_code >= hi_code) {
      // No dictionary value intersects the interval: the group is empty.
      rows_dict_filtered_ += static_cast<int64_t>(num_rows);
      if (df_span != 0) {
        options_.tracer->AddArg(df_span, "dropped",
                                static_cast<int64_t>(num_rows));
        options_.tracer->EndSpan(df_span);
      }
      co_return TableChunk::Empty(proj_schema);
    }
    for (size_t row = 0; row < num_rows; ++row) {
      uint32_t code = view->codes[row];
      if ((code < lo_code || code >= hi_code) && keep[row]) {
        keep[row] = false;
        ++dropped;
      }
    }
    decoded[k] = MaterializeDictView(*view);
  }
  if (df_span != 0) {
    options_.tracer->AddArg(df_span, "dropped",
                            static_cast<int64_t>(dropped));
    options_.tracer->EndSpan(df_span);
  }

  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (auto& c : decoded) cols.push_back(*std::move(c));
  TableChunk chunk(proj_schema, std::move(cols));
  if (dropped > 0) {
    rows_dict_filtered_ += static_cast<int64_t>(dropped);
    chunk = chunk.Filter(keep);
  }
  co_return chunk;
}

}  // namespace lambada::format
