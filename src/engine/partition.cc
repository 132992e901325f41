#include "engine/partition.h"

#include <algorithm>

namespace lambada::engine {

namespace {
// 64-bit mix (SplitMix64 finalizer): cheap and well distributed.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

uint64_t HashRow(const TableChunk& chunk, const std::vector<int>& key_columns,
                 size_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : key_columns) {
    const Column& col = chunk.column(static_cast<size_t>(c));
    uint64_t v;
    if (col.type() == DataType::kInt64) {
      v = static_cast<uint64_t>(col.i64()[row]);
    } else {
      double d = col.f64()[row];
      static_assert(sizeof(d) == sizeof(v));
      __builtin_memcpy(&v, &d, sizeof(v));
    }
    h = Mix(h ^ v);
  }
  return h;
}

Result<std::vector<uint32_t>> ComputePartitionIds(
    const TableChunk& chunk, const std::vector<int>& key_columns,
    int num_partitions) {
  if (num_partitions <= 0) {
    return Status::Invalid("num_partitions must be positive");
  }
  for (int c : key_columns) {
    if (c < 0 || static_cast<size_t>(c) >= chunk.num_columns()) {
      return Status::Invalid("partition key column out of range");
    }
  }
  std::vector<uint32_t> ids(chunk.num_rows());
  for (size_t row = 0; row < ids.size(); ++row) {
    ids[row] = static_cast<uint32_t>(HashRow(chunk, key_columns, row) %
                                     static_cast<uint64_t>(num_partitions));
  }
  return ids;
}

std::vector<TableChunk> PartitionBy(
    const TableChunk& chunk,
    const std::vector<uint32_t>& partition_of_row, int num_partitions) {
  LAMBADA_CHECK_EQ(partition_of_row.size(), chunk.num_rows());
  const size_t parts = static_cast<size_t>(num_partitions);
  const size_t rows = chunk.num_rows();
  const size_t cols = chunk.num_columns();

  // Count every partition's rows, so the outputs are allocated once at
  // their final size.
  std::vector<size_t> cursor(parts, 0);
  for (uint32_t p : partition_of_row) {
    LAMBADA_DCHECK(p < static_cast<uint32_t>(num_partitions));
    ++cursor[p];
  }
  std::vector<std::vector<Column>> out_cols(parts);
  for (size_t p = 0; p < parts; ++p) {
    out_cols[p].reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (chunk.column(c).type() == DataType::kInt64) {
        out_cols[p].push_back(Column::Int64(std::vector<int64_t>(cursor[p])));
      } else {
        out_cols[p].push_back(
            Column::Float64(std::vector<double>(cursor[p])));
      }
    }
  }

  // Each row goes to the next free slot of its partition: rows keep their
  // input order within a partition.
  std::fill(cursor.begin(), cursor.end(), 0);
  for (size_t row = 0; row < rows; ++row) {
    uint32_t p = partition_of_row[row];
    size_t dst = cursor[p]++;
    for (size_t c = 0; c < cols; ++c) {
      const Column& src = chunk.column(c);
      if (src.type() == DataType::kInt64) {
        out_cols[p][c].mutable_i64()[dst] = src.i64()[row];
      } else {
        out_cols[p][c].mutable_f64()[dst] = src.f64()[row];
      }
    }
  }

  std::vector<TableChunk> out;
  out.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    out.emplace_back(chunk.schema(), std::move(out_cols[p]));
  }
  return out;
}

Result<std::vector<TableChunk>> HashPartition(
    const TableChunk& chunk, const std::vector<int>& key_columns,
    int num_partitions) {
  ASSIGN_OR_RETURN(auto ids,
                   ComputePartitionIds(chunk, key_columns, num_partitions));
  return PartitionBy(chunk, ids, num_partitions);
}

}  // namespace lambada::engine
