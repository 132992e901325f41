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
      if (delta > (std::numeric_limits<uint64_t>::max() >> 4)) {
        return Status::IOError("offsets overflow");
      }
      delta = delta * 16 + static_cast<uint64_t>(v);
    }
    // No wrap-around: the offsets ascend, so every part lies inside
    // [0, last offset].
    if (prev + delta < prev) return Status::IOError("offsets overflow");
    prev += delta;
    offsets.push_back(prev);
    i = end + 1;
  }
  if (offsets.size() != expected) {
    return Status::IOError("offsets count mismatch");
  }
  return offsets;
}

/// One sender's write-combined file of a round, as LIST shows it.
struct SenderFile {
  std::string key;
  int sender = 0;
  std::vector<uint64_t> offsets;  ///< side + 1 ascending part offsets.
};

/// Parses the "s<j>-o..." file names written by the group's senders j in
/// [0, side). Any other name under the group's prefix is an IOError
/// naming the key.
Result<SenderFile> ParseCombinedName(const std::string& key,
                                     const std::string& prefix, int side) {
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
  return SenderFile{key, sender, *std::move(offsets)};
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
  // Round spans parent under the exchange span current at entry; slice
  // retries annotate the active round's "get" span.
  obs::Tracer* tracer = env.tracer();
  const uint64_t ex_span = env.trace_span();
  // Per-slice bounded retry: transient statuses (503 SlowDown, injected
  // 500s) back off and re-fetch instead of failing the whole exchange.
  // Jitter draws happen only on failure, so fault-free schedules consume
  // no extra randomness. Re-fetching is safe at any point: exchange keys
  // are attempt-stable and PUTs are atomic last-writer-wins, so a retried
  // GET sees the same bytes.
  constexpr int kSliceAttempts = 4;
  constexpr double kSliceBackoffS = 0.2;
  constexpr double kSliceBackoffCapS = 2.0;

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
      for (size_t row = 0; row < ids.size(); ++row) {
        int dest = static_cast<int>(engine::HashRow(current, key_cols, row) %
                                    static_cast<uint64_t>(P));
        ids[row] = static_cast<uint32_t>(grid.Coord(dest, phase));
      }
      parts = engine::PartitionBy(current, ids, side);
    }
    co_await env.Compute(static_cast<double>(current.num_rows()) *
                         kPartitionCpuPerRow * scale);
    current = TableChunk();  // Free the input.
    round.partition_s = sim->Now() - t0;
    obs::End(tracer, part_span);

    // ---- Write ----
    uint64_t put_span = obs::Begin(tracer, round_span, "exchange", "put");
    t0 = sim->Now();
    // Crash site 2 (armed here, fires right after the PUT below): the
    // attempt-stable file lands, then the handler dies without a result
    // message. The re-invoked attempt rewrites it with identical bytes
    // under the same name (deterministic serialization + atomic
    // last-writer-wins PUT), so a reader that already consumed a
    // first-attempt slice saw exactly the bytes the retry writes — torn
    // state is unobservable.
    const bool crash_mid_writes =
        env.MaybeCrash(cloud::CrashSite::kDuringExchangeWrites);
    auto combined = engine::SerializeChunksCombined(parts);
    co_await env.Compute(static_cast<double>(combined.bytes.size()) *
                         kSerializeCpuPerByte * scale);
    const std::string key = prefix + "s" + std::to_string(my_j) + "-" +
                            EncodeOffsets(combined.offsets);
    if (key.size() > env.services().s3->config().max_key_bytes) {
      co_return Status::Invalid(
          "write-combined file name exceeds the 1 KiB key limit; use more "
          "exchange levels for groups this large");
    }
    const int64_t combined_bytes = static_cast<int64_t>(combined.bytes.size());
    Status put = co_await client.Put(
        bucket, key, Buffer::FromVector(std::move(combined.bytes)));
    if (!put.ok()) co_return put;
    m.registry.Add(obs::Metric::kExchangePutRequests, 1);
    m.registry.Add(obs::Metric::kExchangeBytesWritten, combined_bytes);
    if (crash_mid_writes) {
      co_return Status::Cancelled(
          "injected worker crash during exchange writes (fault plan)");
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
    const uint64_t get_span =
        obs::Begin(tracer, round_span, "exchange", "get");
    t0 = sim->Now();
    // Discover sender files via LIST until all group members appear
    // ("they may need to repeat a few times until they see the files
    // produced by all senders").
    const uint64_t barrier_span =
        obs::Begin(tracer, get_span, "exchange", "barrier");
    std::vector<SenderFile> senders;  // In LIST order.
    const double deadline = sim->Now() + kTimeoutS;
    while (true) {
      auto listing = co_await client.List(bucket, prefix);
      m.registry.Add(obs::Metric::kExchangeListRequests, 1);
      if (!listing.ok()) co_return listing.status();
      senders.clear();
      // Index into `senders` of each sender's file, -1 until listed.
      std::vector<int> listed(static_cast<size_t>(side), -1);
      for (const auto& obj : *listing) {
        // A file no sender of this round wrote never completes the
        // barrier: fail now rather than poll until the timeout. Its name
        // must parse, its last offset (the file's size, scaled the way the
        // object store scales the PUT) must match the listed size, and no
        // sender may have two files.
        auto file = ParseCombinedName(obj.key, prefix, side);
        if (!file.ok()) co_return file.status();
        if (std::trunc(static_cast<double>(file->offsets.back()) * scale) !=
            static_cast<double>(obj.size)) {
          co_return Status::IOError(
              "exchange file " + obj.key + ": LIST reports " +
              std::to_string(obj.size) + " bytes, its offsets end at " +
              std::to_string(file->offsets.back()));
        }
        int& slot = listed[static_cast<size_t>(file->sender)];
        if (slot >= 0) {
          co_return Status::IOError(
              "two exchange files for sender " +
              std::to_string(file->sender) + ": " +
              senders[static_cast<size_t>(slot)].key + " and " + obj.key);
        }
        slot = static_cast<int>(senders.size());
        senders.push_back(*std::move(file));
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
    // One ranged GET per sender, one after another in LIST order (the
    // merge follows it); offsets came with the listed names. A sender
    // with nothing for this receiver costs no request.
    std::vector<TableChunk> received;
    for (const SenderFile& file : senders) {
      const uint64_t begin = file.offsets[static_cast<size_t>(my_j)];
      const uint64_t end = file.offsets[static_cast<size_t>(my_j) + 1];
      if (end <= begin) continue;
      auto fetch = [&] {
        return client.Get(bucket, file.key, static_cast<int64_t>(begin),
                          static_cast<int64_t>(end - begin));
      };
      auto part = co_await fetch();
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
        part = co_await fetch();
      }
      if (!part.ok()) {
        co_return Status(part.status().code(),
                         part.status().message() +
                             " (exchange slice gave up after " +
                             std::to_string(slice_retries) + " retries)");
      }
      m.registry.Add(obs::Metric::kExchangeGetRequests, 1);
      m.registry.Add(obs::Metric::kExchangeBytesRead,
                     static_cast<int64_t>(end - begin));
      auto chunk = engine::DeserializeChunk((*part)->data(), (*part)->size());
      if (!chunk.ok()) co_return chunk.status();
      co_await env.Compute(static_cast<double>((*part)->size()) *
                           kDeserializeCpuPerByte * scale);
      // A slice of a sender that had no schema yet carries no columns.
      if (chunk->num_columns() == 0) continue;
      received.push_back(*std::move(chunk));
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
