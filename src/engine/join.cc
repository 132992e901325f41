#include "engine/join.h"

#include <limits>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "engine/partition.h"

namespace lambada::engine {

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

/// Exact key comparison; the hash table chains by hash value only, so
/// collisions are resolved here.
bool KeysEqual(const TableChunk& probe, const std::vector<int>& probe_keys,
               size_t probe_row, const TableChunk& build,
               const std::vector<int>& build_keys, size_t build_row) {
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    const auto& p = probe.column(static_cast<size_t>(probe_keys[k])).i64();
    const auto& b = build.column(static_cast<size_t>(build_keys[k])).i64();
    if (p[probe_row] != b[build_row]) return false;
  }
  return true;
}

Status ValidateKeys(const TableChunk& chunk, const std::vector<int>& keys,
                    const char* side) {
  for (int c : keys) {
    if (c < 0 || static_cast<size_t>(c) >= chunk.num_columns()) {
      return Status::Invalid(std::string("join ") + side +
                             " key column index out of range");
    }
    if (chunk.column(static_cast<size_t>(c)).type() != DataType::kInt64) {
      return Status::Invalid(std::string("join ") + side + " key column " +
                             chunk.schema()->field(static_cast<size_t>(c))
                                 .name +
                             " must be int64");
    }
  }
  return Status::OK();
}

/// One output column under construction; each match appends one row.
struct OutputColumn {
  DataType type;
  const Column* src;  ///< Borrowed source column (probe or build side).
  bool from_probe;    ///< Row index comes from the probe (else build) row.
  std::vector<int64_t> i64;
  std::vector<double> f64;

  void Append(size_t src_row) {
    if (type == DataType::kInt64) {
      i64.push_back(src->i64()[src_row]);
    } else {
      f64.push_back(src->f64()[src_row]);
    }
  }
  Column Take() {
    return type == DataType::kInt64 ? Column::Int64(std::move(i64))
                                    : Column::Float64(std::move(f64));
  }
};

}  // namespace

std::string_view JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftSemi:
      return "left-semi";
  }
  return "?";
}

Result<TableChunk> HashJoin(const TableChunk& probe,
                            const std::vector<int>& probe_keys,
                            const TableChunk& build,
                            const std::vector<int>& build_keys,
                            JoinType type) {
  if (probe_keys.empty() || probe_keys.size() != build_keys.size()) {
    return Status::Invalid("join key lists must be non-empty and equal");
  }
  RETURN_NOT_OK(ValidateKeys(probe, probe_keys, "probe"));
  RETURN_NOT_OK(ValidateKeys(build, build_keys, "build"));

  // Output layout: probe columns, then (inner only) the build columns
  // minus the build keys — key values are equal across sides by
  // definition, so repeating them would only create name collisions.
  std::vector<Field> out_fields = probe.schema()->fields();
  std::vector<OutputColumn> out;
  out.reserve(probe.num_columns() + build.num_columns());
  for (size_t c = 0; c < probe.num_columns(); ++c) {
    out.push_back(OutputColumn{probe.column(c).type(), &probe.column(c),
                               /*from_probe=*/true, {}, {}});
  }
  if (type == JoinType::kInner) {
    std::set<int> key_set(build_keys.begin(), build_keys.end());
    for (size_t c = 0; c < build.num_columns(); ++c) {
      if (key_set.count(static_cast<int>(c))) continue;
      out_fields.push_back(build.schema()->field(c));
      out.push_back(OutputColumn{build.column(c).type(), &build.column(c),
                                 /*from_probe=*/false, {}, {}});
    }
  }
  {
    std::set<std::string> names;
    for (const auto& f : out_fields) {
      if (!names.insert(f.name).second) {
        return Status::Invalid("join output would duplicate column " +
                               f.name);
      }
    }
  }

  // Build a chained hash table over the build side. Rows insert in
  // descending order with head insertion, so every chain reads in
  // ascending build-row order — the order matches emit in.
  const size_t n_build = build.num_rows();
  const size_t n_probe = probe.num_rows();
  if (n_build > kNoRow - 1) return Status::Invalid("build side too large");
  std::vector<uint32_t> next(n_build, kNoRow);
  std::unordered_map<uint64_t, uint32_t> head;
  head.reserve(n_build * 2);
  for (size_t r = n_build; r-- > 0;) {
    uint64_t h = HashRow(build, build_keys, r);
    auto [it, inserted] = head.try_emplace(h, static_cast<uint32_t>(r));
    if (!inserted) {
      next[r] = it->second;
      it->second = static_cast<uint32_t>(r);
    }
  }

  // Probe rows in order; a probe row's matches in build-row order (semi
  // joins stop at the first).
  for (size_t i = 0; i < n_probe; ++i) {
    auto it = head.find(HashRow(probe, probe_keys, i));
    if (it == head.end()) continue;
    for (uint32_t r = it->second; r != kNoRow; r = next[r]) {
      if (!KeysEqual(probe, probe_keys, i, build, build_keys, r)) continue;
      for (auto& col : out) col.Append(col.from_probe ? i : r);
      if (type == JoinType::kLeftSemi) break;
    }
  }

  std::vector<Column> columns;
  columns.reserve(out.size());
  for (auto& col : out) columns.push_back(col.Take());
  return TableChunk(std::make_shared<Schema>(std::move(out_fields)),
                    std::move(columns));
}

}  // namespace lambada::engine
