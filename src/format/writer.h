#ifndef LAMBADA_FORMAT_WRITER_H_
#define LAMBADA_FORMAT_WRITER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "engine/table.h"
#include "format/metadata.h"

namespace lambada::format {

/// Options controlling file layout. The defaults mirror the paper's setup:
/// heavy (GZIP-class) compression. Every column chunk carries min/max
/// statistics (they enable row-group pruning).
struct WriterOptions {
  /// Rows per row group. The paper's 500 MB files have a handful of row
  /// groups each; experiments configure this to match that shape.
  int64_t row_group_rows = 64 * 1024;
  compress::CodecId codec = compress::CodecId::kHeavy;
  /// Choose the smallest value encoding per column chunk; plain otherwise.
  bool auto_encoding = true;
};

/// Serializes table chunks into an .lpq file held in memory. Files are
/// written whole (the paper stores immutable objects on S3), so an
/// in-memory build followed by one PUT is the natural write path.
class FileWriter {
 public:
  FileWriter(engine::SchemaPtr schema, const WriterOptions& options = {});

  /// Appends rows; row groups are cut automatically.
  Status Append(const engine::TableChunk& chunk);

  /// Flushes pending rows and returns the complete file bytes. The writer
  /// is unusable afterwards.
  Result<std::vector<uint8_t>> Finish();

  /// Convenience: single-shot serialization of one table.
  static Result<std::vector<uint8_t>> WriteTable(
      const engine::TableChunk& table, const WriterOptions& options = {});

 private:
  /// Encodes, compresses and appends `group` as the next row group.
  Status FlushRowGroup(const engine::TableChunk& group);

  engine::SchemaPtr schema_;
  WriterOptions options_;
  std::vector<uint8_t> file_;
  FileMetadata metadata_;
  engine::TableChunk pending_;
  bool finished_ = false;
};

}  // namespace lambada::format

#endif  // LAMBADA_FORMAT_WRITER_H_
