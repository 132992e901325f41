#ifndef LAMBADA_ENGINE_PARTITION_H_
#define LAMBADA_ENGINE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace lambada::engine {

/// Stable 64-bit hash of one row's key columns. Deterministic across
/// workers (required for exchange correctness: every worker must route a
/// given key to the same partition).
uint64_t HashRow(const TableChunk& chunk, const std::vector<int>& key_columns,
                 size_t row);

/// In-memory partitioning routine (DramPartitioning in Algorithm 1):
/// splits `chunk` into `num_partitions` chunks by hash of the key columns.
/// Every input row lands in exactly one output partition, and rows keep
/// their input order within each partition.
Result<std::vector<TableChunk>> HashPartition(
    const TableChunk& chunk, const std::vector<int>& key_columns,
    int num_partitions);

/// Like HashPartition but with an arbitrary row -> partition projection
/// (used by the multi-level exchange, which partitions by coordinate).
/// Each row is appended to its partition in input order.
std::vector<TableChunk> PartitionBy(
    const TableChunk& chunk,
    const std::vector<uint32_t>& partition_of_row, int num_partitions);

/// Computes each row's target partition id.
Result<std::vector<uint32_t>> ComputePartitionIds(
    const TableChunk& chunk, const std::vector<int>& key_columns,
    int num_partitions);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_PARTITION_H_
