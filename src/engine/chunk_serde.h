#ifndef LAMBADA_ENGINE_CHUNK_SERDE_H_
#define LAMBADA_ENGINE_CHUNK_SERDE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace lambada::engine {

/// Serializes a chunk (schema + columns) into a self-contained byte blob.
/// This is the wire format of exchange partition files and worker result
/// messages. Values are raw little-endian: exchange data is written and
/// read once, so cheap serialization beats compression here.
std::vector<uint8_t> SerializeChunk(const TableChunk& chunk);

/// Inverse of SerializeChunk; validates sizes and reports corruption.
Result<TableChunk> DeserializeChunk(const uint8_t* data, size_t size);
inline Result<TableChunk> DeserializeChunk(const std::vector<uint8_t>& b) {
  return DeserializeChunk(b.data(), b.size());
}

/// Serializes several chunks back-to-back, returning the blob and the
/// byte offset of each chunk — the layout of a write-combined exchange
/// file (Section 4.4.3: "writing all partitions produced by one worker
/// into a single file").
struct CombinedChunks {
  std::vector<uint8_t> bytes;
  std::vector<uint64_t> offsets;  ///< Start of each chunk; size = n+1
                                  ///< (last entry = total size).
};
CombinedChunks SerializeChunksCombined(const std::vector<TableChunk>& chunks);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_CHUNK_SERDE_H_
