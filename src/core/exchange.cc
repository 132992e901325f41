#include "core/exchange.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>

#include "cloud/object_store.h"
#include "engine/chunk_serde.h"
#include "engine/partition.h"
#include "exec/parallel_for.h"
#include "exec/request_batcher.h"

namespace lambada::core {

namespace {

using engine::TableChunk;

/// CPU cost model of the in-memory exchange stages (vCPU-seconds).
constexpr double kPartitionCpuPerRow = 3e-9;
constexpr double kSerializeCpuPerByte = 1.0 / 1.5e9;
constexpr double kDeserializeCpuPerByte = 1.0 / 1.5e9;
/// Receiver polling cadence and give-up horizon while waiting for the
/// senders' slices of one round (Section 4.4).
constexpr double kPollIntervalS = 0.05;
constexpr double kTimeoutS = 600.0;

/// The k-dimensional worker grid of the multi-level exchange.
struct Grid {
  std::vector<int> sides;
  std::vector<int> strides;

  static Grid Make(const std::vector<int>& factors) {
    Grid g;
    g.sides = factors;
    g.strides.resize(factors.size());
    int stride = 1;
    for (size_t i = 0; i < factors.size(); ++i) {
      g.strides[i] = stride;
      stride *= factors[i];
    }
    return g;
  }

  int Coord(int x, size_t dim) const {
    return (x / strides[dim]) % sides[dim];
  }
  /// x with coordinate `dim` zeroed: identifies the phase-`dim` group.
  int GroupBase(int x, size_t dim) const {
    return x - Coord(x, dim) * strides[dim];
  }
  /// Worker in x's phase-`dim` group with coordinate j in that dimension.
  int Member(int x, size_t dim, int j) const {
    return GroupBase(x, dim) + j * strides[dim];
  }
};

std::string BucketFor(const ExchangeSpec& spec, int group_base, int phase) {
  // Spread groups over buckets; the per-bucket request rate then drops by
  // the bucket count (Section 4.4.1).
  uint64_t h = static_cast<uint64_t>(group_base) * 1000003ULL +
               static_cast<uint64_t>(phase) * 97ULL;
  h ^= h >> 21;
  return spec.bucket_prefix + "-" +
         std::to_string(h % static_cast<uint64_t>(spec.num_buckets));
}

std::string GroupPrefix(const ExchangeSpec& spec, int phase,
                        int group_base) {
  return spec.exchange_id + "/ph" + std::to_string(phase) + "/g" +
         std::to_string(group_base) + "/";
}

std::string EncodeOffsets(const std::vector<uint64_t>& offsets) {
  // Compact hex deltas: "o<d0>.<d1>...." — offsets are ascending.
  std::string out = "o";
  char buf[32];
  uint64_t prev = 0;
  for (uint64_t off : offsets) {
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(off - prev));
    if (out.size() > 1) out += ".";
    out += buf;
    prev = off;
  }
  return out;
}

Result<std::vector<uint64_t>> DecodeOffsets(const std::string& encoded,
                                            size_t expected) {
  if (encoded.empty() || encoded[0] != 'o') {
    return Status::IOError("bad offsets encoding");
  }
  std::vector<uint64_t> offsets;
  uint64_t prev = 0;
  size_t i = 1;
  while (i < encoded.size()) {
    size_t end = encoded.find('.', i);
    if (end == std::string::npos) end = encoded.size();
    uint64_t delta = 0;
    for (size_t j = i; j < end; ++j) {
      char c = encoded[j];
      int v;
      if (c >= '0' && c <= '9') {
        v = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        v = c - 'a' + 10;
      } else {
        return Status::IOError("bad hex in offsets");
      }
      delta = delta * 16 + static_cast<uint64_t>(v);
    }
    prev += delta;
    offsets.push_back(prev);
    i = end + 1;
  }
  if (offsets.size() != expected) {
    return Status::IOError("offsets count mismatch");
  }
  return offsets;
}

/// Parses the "s<j>-o..." file names of the offsets-in-name variant,
/// written by the group's senders j in [0, side). Any other name under the
/// group's prefix is an IOError naming the key.
Result<std::pair<int, std::vector<uint64_t>>> ParseCombinedName(
    const std::string& key, const std::string& prefix, int side) {
  auto bad = [&key](const std::string& why) {
    return Status::IOError("bad exchange file name " + key + ": " + why);
  };
  if (key.size() <= prefix.size() ||
      key.compare(0, prefix.size(), prefix) != 0 ||
      key[prefix.size()] != 's') {
    return bad("not a sender file");
  }
  const size_t dash = key.find('-', prefix.size());
  if (dash == std::string::npos) return bad("missing offsets");
  const char* first = key.data() + prefix.size() + 1;
  const char* last = key.data() + dash;
  int sender = -1;
  auto [end, ec] = std::from_chars(first, last, sender);
  if (ec != std::errc() || end != last || sender < 0 || sender >= side) {
    return bad("sender index outside [0, " + std::to_string(side) + ")");
  }
  auto offsets = DecodeOffsets(key.substr(dash + 1),
                               static_cast<size_t>(side) + 1);
  if (!offsets.ok()) return bad(offsets.status().message());
  return std::make_pair(sender, *std::move(offsets));
}

}  // namespace

Result<std::vector<int>> FactorizeWorkers(int P, int levels) {
  if (P <= 0) return Status::Invalid("P must be positive");
  if (levels < 1 || levels > 3) {
    return Status::Invalid("exchange supports 1-3 levels");
  }
  if (levels == 1) return std::vector<int>{P};

  std::function<std::vector<int>(int, int)> best_factors =
      [&](int n, int k) -> std::vector<int> {
    if (k == 1) return {n};
    double target = std::pow(static_cast<double>(n), 1.0 / k);
    std::vector<int> best;
    double best_score = std::numeric_limits<double>::infinity();
    for (int d = 1; d <= n; ++d) {
      if (n % d != 0) continue;
      // Prefer the first factor near the k-th root.
      std::vector<int> rest = best_factors(n / d, k - 1);
      std::vector<int> cand;
      cand.push_back(d);
      cand.insert(cand.end(), rest.begin(), rest.end());
      int mx = *std::max_element(cand.begin(), cand.end());
      int mn = *std::min_element(cand.begin(), cand.end());
      double score = static_cast<double>(mx) / mn +
                     std::abs(d - target) / target;
      if (score < best_score) {
        best_score = score;
        best = cand;
      }
    }
    return best;
  };

  std::vector<int> factors = best_factors(P, levels);
  int mx = *std::max_element(factors.begin(), factors.end());
  int mn = *std::min_element(factors.begin(), factors.end());
  if (mn == 0 || static_cast<double>(mx) / mn > 16.0) {
    return Status::Invalid(
        "worker count " + std::to_string(P) + " has no balanced " +
        std::to_string(levels) + "-level factorization");
  }
  return factors;
}

int LargestFactorizableWorkerCount(int P, int levels) {
  for (int p = P; p >= 1; --p) {
    if (FactorizeWorkers(p, levels).ok()) return p;
  }
  return 1;
}

Status CreateExchangeBuckets(cloud::ObjectStore* s3,
                             const ExchangeSpec& spec) {
  for (int i = 0; i < spec.num_buckets; ++i) {
    RETURN_NOT_OK(
        s3->CreateBucket(spec.bucket_prefix + "-" + std::to_string(i)));
  }
  return Status::OK();
}

ExchangeRequestCounts PredictExchangeRequests(int P, int levels,
                                              bool write_combining) {
  // Table 2: with side length s = P^(1/k), each worker does s reads and s
  // writes per level (k levels); write combining collapses the writes of
  // one level to one per worker and adds O(P) lists (one+ per worker per
  // level).
  ExchangeRequestCounts c;
  double p = static_cast<double>(P);
  double s = std::pow(p, 1.0 / levels);
  c.reads = levels * p * s;
  c.writes = write_combining ? levels * p : levels * p * s;
  c.lists = write_combining ? levels * p : 0;
  c.scans = levels;
  return c;
}

sim::Async<Result<TableChunk>> RunExchange(cloud::WorkerEnv& env,
                                           const ExchangeSpec& spec, int p,
                                           int P, TableChunk input,
                                           ExchangeMetrics* metrics) {
  auto factors_or = FactorizeWorkers(P, spec.levels);
  if (!factors_or.ok()) co_return factors_or.status();
  Grid grid = Grid::Make(*factors_or);
  auto* sim = env.sim();
  cloud::S3Client client(env.services().s3, env.net());
  const double scale = env.data_scale;
  // Worker-local runtime: kernels are morsel-parallel, request fan-out is
  // bounded by io_depth. The default (serial, depth 1) reproduces the
  // sequential schedule bit for bit; any other setting changes only
  // timing, never output bytes (deterministic merge order below).
  const exec::ExecContext& xc = env.exec;
  exec::RequestBatcher batcher(sim, xc.io_depth);
  // Round spans parent under the exchange span current at entry; slice
  // retries annotate the active round's "get" span.
  obs::Tracer* tracer = env.tracer();
  const uint64_t ex_span = env.trace_span();
  uint64_t get_span = 0;

  // Shared wait+read machinery for all three exchange layouts: fetch(i)
  // returns sender i's raw slice bytes (a null buffer means "nothing for
  // us", no request issued); this wrapper deserializes and charges
  // compute per slot, fanned out through the batcher. Results land in
  // sender-slot order, so the merge is identical to the sequential read
  // order. An abort flag short-circuits slots not yet started once an
  // earlier slot fails, like the old sequential loop — and since the
  // FIFO gate starts slots in order, sentinel slots can only follow the
  // failing slot, so the first failure is still the one reported.
  // Per-slot bounded retry: transient statuses (503 SlowDown, injected
  // 500s) back off and re-fetch instead of failing the whole exchange.
  // Jitter draws happen only on failure, so fault-free schedules consume
  // no extra randomness. Re-fetching is safe at any point: exchange keys
  // are attempt-stable and PUTs are atomic last-writer-wins, so a retried
  // GET sees either the same bytes or nothing yet (and polls again).
  constexpr int kSliceAttempts = 4;
  constexpr double kSliceBackoffS = 0.2;
  constexpr double kSliceBackoffCapS = 2.0;
  auto read_slices = [&](size_t n, auto fetch)
      -> sim::Async<Result<std::vector<TableChunk>>> {
    bool failed = false;
    std::vector<std::function<sim::Async<Result<TableChunk>>()>> reads;
    reads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      reads.push_back([&, i]() -> sim::Async<Result<TableChunk>> {
        if (failed) co_return TableChunk();  // Unattempted slot.
        auto part = co_await fetch(i);
        int slice_retries = 0;
        double backoff = kSliceBackoffS;
        while (!part.ok() && part.status().IsRetriable() &&
               slice_retries + 1 < kSliceAttempts) {
          ++slice_retries;
          if (tracer != nullptr) {
            tracer->Instant(get_span, "exchange.slice_retry");
          }
          co_await sim::Sleep(sim, std::min(backoff, kSliceBackoffCapS) *
                                       (0.5 + env.rng().NextDouble()));
          backoff *= 2;
          part = co_await fetch(i);
        }
        if (!part.ok()) {
          failed = true;
          co_return Status(part.status().code(),
                           part.status().message() +
                               " (exchange slice gave up after " +
                               std::to_string(slice_retries) + " retries)");
        }
        if (*part == nullptr) co_return TableChunk();  // Empty slice.
        auto chunk =
            engine::DeserializeChunk((*part)->data(), (*part)->size(), xc);
        if (!chunk.ok()) {
          failed = true;
          co_return chunk.status();
        }
        co_await env.Compute(static_cast<double>((*part)->size()) *
                             kDeserializeCpuPerByte * scale);
        co_return *std::move(chunk);
      });
    }
    auto slices = co_await batcher.Run(std::move(reads));
    std::vector<TableChunk> out;
    for (auto& slice : slices) {
      if (!slice.ok()) co_return slice.status();
      if (slice->num_columns() == 0) continue;  // Empty slice sentinel.
      out.push_back(*std::move(slice));
    }
    co_return out;
  };

  // Key columns resolve lazily from the first chunk that has a schema: a
  // worker whose local input is empty (e.g. the build side of a join when
  // the relation has fewer files than workers) enters the exchange with a
  // schema-less chunk, sends its empty slices so receivers never stall,
  // and learns the schema from the rows other senders deliver.
  std::vector<int> key_cols;
  bool keys_resolved = false;
  auto resolve_keys = [&](const engine::SchemaPtr& s) -> Status {
    key_cols.clear();
    for (const auto& k : spec.keys) {
      int idx = s->FieldIndex(k);
      if (idx < 0) {
        return Status::Invalid("exchange key column not found: " + k);
      }
      key_cols.push_back(idx);
    }
    keys_resolved = true;
    return Status::OK();
  };

  engine::SchemaPtr schema = input.schema();
  TableChunk current = std::move(input);
  ExchangeMetrics local;
  ExchangeMetrics& m = metrics != nullptr ? *metrics : local;

  // Crash site 1: the fate-armed handler dies before any slice lands. No
  // result message is sent; recovery is entirely the driver's speculative
  // re-invocation, and the retry starts from a clean (empty) key range.
  if (env.MaybeCrash(cloud::CrashSite::kBeforeExchangeWrites)) {
    co_return Status::Cancelled(
        "injected worker crash before exchange writes (fault plan)");
  }

  for (size_t phase = 0; phase < grid.sides.size(); ++phase) {
    ExchangeMetrics::Round round;
    const int side = grid.sides[phase];
    const int my_j = grid.Coord(p, phase);
    const int base = grid.GroupBase(p, phase);
    const std::string bucket = BucketFor(spec, base, static_cast<int>(phase));
    const std::string prefix = GroupPrefix(spec, static_cast<int>(phase),
                                           base);
    // Early returns (crashes, request failures) leave the open spans
    // unclosed on purpose: the trace then shows exactly where the worker
    // died ("(unclosed)" in the text rendering, zero-width in Chrome).
    uint64_t round_span = obs::Begin(tracer, ex_span, "exchange", "round");
    if (round_span != 0) {
      tracer->AddArg(round_span, "round", static_cast<int64_t>(phase));
    }

    // ---- Partition (DramPartitioning of Algorithm 1, projected onto this
    // phase's coordinate, per Algorithm 2). ----
    uint64_t part_span = obs::Begin(tracer, round_span, "exchange",
                                    "partition");
    double t0 = sim->Now();
    std::vector<TableChunk> parts;
    if (current.num_columns() == 0) {
      // Nothing local to route, but the group still expects this sender's
      // slices: emit `side` empty parts.
      parts.assign(static_cast<size_t>(side), TableChunk());
    } else {
      if (!keys_resolved) {
        Status keys = resolve_keys(current.schema());
        if (!keys.ok()) co_return keys;
      }
      std::vector<uint32_t> ids(current.num_rows());
      exec::ParallelFor(xc, 0, current.num_rows(), [&](size_t b, size_t e) {
        for (size_t row = b; row < e; ++row) {
          int dest = static_cast<int>(
              engine::HashRow(current, key_cols, row) %
              static_cast<uint64_t>(P));
          ids[row] = static_cast<uint32_t>(grid.Coord(dest, phase));
        }
      });
      parts = engine::PartitionBy(current, ids, side, xc);
    }
    co_await env.Compute(static_cast<double>(current.num_rows()) *
                         kPartitionCpuPerRow * scale);
    current = TableChunk();  // Free the input.
    round.partition_s = sim->Now() - t0;
    obs::End(tracer, part_span);

    // ---- Write ----
    uint64_t put_span = obs::Begin(tracer, round_span, "exchange", "put");
    t0 = sim->Now();
    // Crash site 2 (armed here, fires mid-write below): some attempt-stable
    // slices land, then the handler dies without a result message. The
    // re-invoked attempt rewrites every slice with identical bytes
    // (deterministic serialization + atomic last-writer-wins PUT), so a
    // reader that already consumed a first-attempt slice saw exactly the
    // bytes the retry writes — torn state is unobservable.
    const bool crash_mid_writes =
        env.MaybeCrash(cloud::CrashSite::kDuringExchangeWrites);
    std::vector<uint64_t> my_offsets;
    if (spec.write_combining) {
      auto combined = engine::SerializeChunksCombined(parts, xc);
      my_offsets = combined.offsets;
      co_await env.Compute(static_cast<double>(combined.bytes.size()) *
                           kSerializeCpuPerByte * scale);
      std::string key;
      if (spec.offsets_in_name) {
        key = prefix + "s" + std::to_string(my_j) + "-" +
              EncodeOffsets(combined.offsets);
        if (key.size() > env.services().s3->config().max_key_bytes) {
          co_return Status::Invalid(
              "write-combined file name exceeds the 1 KiB key limit; use "
              "the offsets-file variant for groups this large");
        }
      } else {
        key = prefix + "s" + std::to_string(my_j) + "-data";
      }
      const int64_t combined_bytes =
          static_cast<int64_t>(combined.bytes.size());
      Status put = co_await client.Put(
          bucket, key, Buffer::FromVector(std::move(combined.bytes)));
      if (!put.ok()) co_return put;
      m.registry.Add(obs::Metric::kExchangePutRequests, 1);
      m.registry.Add(obs::Metric::kExchangeBytesWritten, combined_bytes);
      if (crash_mid_writes) {
        // Dies between the data PUT and the idx PUT (or, with offsets in
        // the name, right after the single PUT): readers keep polling for
        // the missing idx until the retry attempt supplies it.
        co_return Status::Cancelled(
            "injected worker crash during exchange writes (fault plan)");
      }
      if (!spec.offsets_in_name) {
        BinaryWriter w;
        for (uint64_t off : combined.offsets) w.PutU64(off);
        auto idx_bytes = w.Take();
        m.registry.Add(obs::Metric::kExchangeBytesWritten,
                       static_cast<int64_t>(idx_bytes.size()));
        Status idx = co_await client.Put(
            bucket, prefix + "s" + std::to_string(my_j) + "-idx",
            Buffer::FromVector(std::move(idx_bytes)));
        if (!idx.ok()) co_return idx;
        m.registry.Add(obs::Metric::kExchangePutRequests, 1);
      }
    } else {
      // One file per receiver: serialize + charge + PUT per slot, fanned
      // out with bounded depth (slot order == the old sequential order).
      // The abort flag short-circuits like the old sequential loop did:
      // slots not yet started when an earlier slot fails return
      // immediately (zero virtual time), and only started requests — at
      // most `depth` — still run out.
      bool put_failed = false;
      bool crashed_mid = false;
      std::vector<std::function<sim::Async<Status>()>> puts;
      puts.reserve(static_cast<size_t>(side));
      for (int j = 0; j < side; ++j) {
        puts.push_back([&, j]() -> sim::Async<Status> {
          // Unattempted slot (earlier failure or mid-write crash).
          if (put_failed || crashed_mid) co_return Status::OK();
          auto blob =
              engine::SerializeChunk(parts[static_cast<size_t>(j)], xc);
          co_await env.Compute(static_cast<double>(blob.size()) *
                               kSerializeCpuPerByte * scale);
          const int64_t blob_bytes = static_cast<int64_t>(blob.size());
          Status put = co_await client.Put(
              bucket,
              prefix + "s" + std::to_string(my_j) + "r" + std::to_string(j),
              Buffer::FromVector(std::move(blob)));
          if (put.ok()) {
            m.registry.Add(obs::Metric::kExchangePutRequests, 1);
            m.registry.Add(obs::Metric::kExchangeBytesWritten, blob_bytes);
            // Die halfway through the receiver slots: slots already in
            // flight still land, later ones never start.
            if (crash_mid_writes && j == side / 2) crashed_mid = true;
          } else {
            put_failed = true;
          }
          co_return put;
        });
      }
      auto statuses = co_await batcher.Run(std::move(puts));
      for (const Status& put : statuses) {
        if (!put.ok()) co_return put;
      }
      if (crashed_mid) {
        co_return Status::Cancelled(
            "injected worker crash during exchange writes (fault plan)");
      }
    }
    parts.clear();
    round.write_s = sim->Now() - t0;
    obs::End(tracer, put_span);

    // Crash site 3: every slice of this phase is visible, but the handler
    // dies before reading (or, for the last phase, before reporting). The
    // retry overwrites each slice byte-identically and carries on.
    if (env.MaybeCrash(cloud::CrashSite::kAfterExchangeWrites)) {
      co_return Status::Cancelled(
          "injected worker crash after exchange writes (fault plan)");
    }

    // ---- Wait + read ----
    get_span = obs::Begin(tracer, round_span, "exchange", "get");
    t0 = sim->Now();
    std::vector<TableChunk> received;
    if (spec.write_combining && spec.offsets_in_name) {
      // Discover sender files via LIST until all group members appear
      // ("they may need to repeat a few times until they see the files
      // produced by all senders").
      uint64_t barrier_span = obs::Begin(tracer, get_span, "exchange",
                                         "barrier");
      std::vector<std::pair<int, std::vector<uint64_t>>> senders;
      std::vector<std::string> keys_found;
      double deadline = sim->Now() + kTimeoutS;
      while (true) {
        auto listing = co_await client.List(bucket, prefix);
        m.registry.Add(obs::Metric::kExchangeListRequests, 1);
        if (!listing.ok()) co_return listing.status();
        senders.clear();
        keys_found.clear();
        for (const auto& obj : *listing) {
          // A foreign name never turns into a sender file: fail now
          // rather than poll until the timeout.
          auto parsed = ParseCombinedName(obj.key, prefix, side);
          if (!parsed.ok()) co_return parsed.status();
          senders.push_back(*parsed);
          keys_found.push_back(obj.key);
        }
        if (senders.size() == static_cast<size_t>(side)) break;
        if (sim->Now() >= deadline) {
          co_return Status::Timeout("exchange: senders missing in phase " +
                                    std::to_string(phase));
        }
        co_await sim::Sleep(sim, kPollIntervalS);
      }
      round.wait_s = sim->Now() - t0;
      obs::End(tracer, barrier_span);
      t0 = sim->Now();
      // Ranged GET per sender; offsets came with the LISTed names.
      auto fetch = [&](size_t i) -> sim::Async<Result<BufferPtr>> {
        const auto& offsets = senders[i].second;
        uint64_t begin = offsets[static_cast<size_t>(my_j)];
        uint64_t end = offsets[static_cast<size_t>(my_j) + 1];
        if (end <= begin) co_return BufferPtr();
        auto part = co_await client.Get(bucket, keys_found[i],
                                        static_cast<int64_t>(begin),
                                        static_cast<int64_t>(end - begin));
        if (part.ok()) {
          m.registry.Add(obs::Metric::kExchangeGetRequests, 1);
          m.registry.Add(obs::Metric::kExchangeBytesRead,
                         static_cast<int64_t>(end - begin));
        }
        co_return part;
      };
      auto slices = co_await read_slices(senders.size(), fetch);
      if (!slices.ok()) co_return slices.status();
      received = *std::move(slices);
    } else if (spec.write_combining) {
      // Offsets in a separate file: doubles the read requests. Each
      // sender's idx-poll + ranged data GET runs as one batched slot.
      auto fetch = [&](size_t i) -> sim::Async<Result<BufferPtr>> {
        int j = static_cast<int>(i);
        auto idx = co_await client.GetWhenAvailable(
            bucket, prefix + "s" + std::to_string(j) + "-idx",
            kPollIntervalS, kTimeoutS);
        if (!idx.ok()) co_return idx.status();
        m.registry.Add(obs::Metric::kExchangeGetRequests, 1);
        m.registry.Add(obs::Metric::kExchangeBytesRead,
                       static_cast<int64_t>((*idx)->size()));
        BinaryReader r((*idx)->data(), (*idx)->size());
        std::vector<uint64_t> offsets;
        for (int k = 0; k <= side; ++k) {
          auto off = r.GetU64();
          if (!off.ok()) co_return off.status();
          offsets.push_back(*off);
        }
        uint64_t begin = offsets[static_cast<size_t>(my_j)];
        uint64_t end = offsets[static_cast<size_t>(my_j) + 1];
        if (end <= begin) co_return BufferPtr();
        auto part = co_await client.Get(
            bucket, prefix + "s" + std::to_string(j) + "-data",
            static_cast<int64_t>(begin), static_cast<int64_t>(end - begin));
        if (part.ok()) {
          m.registry.Add(obs::Metric::kExchangeGetRequests, 1);
          m.registry.Add(obs::Metric::kExchangeBytesRead,
                         static_cast<int64_t>(end - begin));
        }
        co_return part;
      };
      auto slices = co_await read_slices(static_cast<size_t>(side), fetch);
      if (!slices.ok()) co_return slices.status();
      received = *std::move(slices);
    } else {
      // BasicExchange: one file per (sender, receiver) pair, polled per
      // batched slot.
      auto fetch = [&](size_t i) -> sim::Async<Result<BufferPtr>> {
        auto part = co_await client.GetWhenAvailable(
            bucket,
            prefix + "s" + std::to_string(i) + "r" + std::to_string(my_j),
            kPollIntervalS, kTimeoutS);
        if (part.ok()) {
          m.registry.Add(obs::Metric::kExchangeGetRequests, 1);
          if (*part != nullptr) {
            m.registry.Add(obs::Metric::kExchangeBytesRead,
                           static_cast<int64_t>((*part)->size()));
          }
        }
        co_return part;
      };
      auto slices = co_await read_slices(static_cast<size_t>(side), fetch);
      if (!slices.ok()) co_return slices.status();
      received = *std::move(slices);
    }
    auto merged = engine::ConcatChunks(received);
    if (!merged.ok()) co_return merged.status();
    current = *std::move(merged);
    if (current.num_columns() == 0) {
      // Every slice was empty: keep the schema for the next phase (a null
      // schema stays null — senders with no local rows anywhere).
      current = TableChunk::Empty(schema);
    } else {
      schema = current.schema();
    }
    round.read_s = sim->Now() - t0;
    obs::End(tracer, get_span);
    get_span = 0;
    if (round_span != 0) {
      tracer->AddArgF(round_span, "partition_s", round.partition_s);
      tracer->AddArgF(round_span, "write_s", round.write_s);
      tracer->AddArgF(round_span, "wait_s", round.wait_s);
      tracer->AddArgF(round_span, "read_s", round.read_s);
    }
    obs::End(tracer, round_span);
    m.registry.Add(obs::Metric::kExchangeRounds, 1);
    m.registry.Observe(obs::Metric::kExchangeRoundTime,
                       round.partition_s + round.write_s + round.wait_s +
                           round.read_s);
    m.rounds.push_back(round);
  }
  co_return current;
}

}  // namespace lambada::core
