#ifndef LAMBADA_FORMAT_METADATA_H_
#define LAMBADA_FORMAT_METADATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "engine/table.h"
#include "format/encoding.h"

namespace lambada::format {

/// Magic bytes framing an .lpq file (our Parquet-class format).
inline constexpr char kMagic[4] = {'L', 'P', 'Q', '1'};

/// Min/max statistics of one column chunk, used for predicate push-down
/// (row-group pruning, Section 5.3). The active pair is determined by the
/// column's type in the schema.
struct ColumnStats {
  bool valid = false;
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
  double min_f64 = 0;
  double max_f64 = 0;

  static ColumnStats Compute(const engine::Column& column);
};

/// Location and shape of one column chunk within the file.
struct ColumnChunkMeta {
  uint64_t offset = 0;            ///< Absolute file offset.
  uint64_t compressed_size = 0;   ///< Bytes on storage.
  uint64_t uncompressed_size = 0; ///< Bytes after codec, before decoding.
  Encoding encoding = Encoding::kPlain;
  compress::CodecId codec = compress::CodecId::kNone;
  ColumnStats stats;
};

/// One horizontal partition of the file ("row group").
struct RowGroupMeta {
  uint64_t num_rows = 0;
  std::vector<ColumnChunkMeta> columns;
};

/// The file footer: schema plus the index of all row groups. Loaded with a
/// single (tail) read, exactly like Parquet metadata (Section 4.3.2).
struct FileMetadata {
  engine::Schema schema;
  uint64_t num_rows = 0;
  std::vector<RowGroupMeta> row_groups;

  std::vector<uint8_t> Serialize() const;
  static Result<FileMetadata> Parse(const uint8_t* data, size_t size);
};

}  // namespace lambada::format

#endif  // LAMBADA_FORMAT_METADATA_H_
