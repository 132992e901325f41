#include "format/metadata.h"

#include <algorithm>

#include "common/binio.h"

namespace lambada::format {

using engine::Column;
using engine::DataType;

ColumnStats ColumnStats::Compute(const Column& column) {
  ColumnStats s;
  if (column.size() == 0) return s;
  s.valid = true;
  if (column.type() == DataType::kInt64) {
    const auto& v = column.i64();
    auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    s.min_i64 = *mn;
    s.max_i64 = *mx;
  } else {
    const auto& v = column.f64();
    auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    s.min_f64 = *mn;
    s.max_f64 = *mx;
  }
  return s;
}

std::vector<uint8_t> FileMetadata::Serialize() const {
  BinaryWriter w;
  w.PutU8(1);  // Footer format version.
  w.PutVarint(schema.num_fields());
  for (const auto& f : schema.fields()) {
    w.PutString(f.name);
    w.PutU8(static_cast<uint8_t>(f.type));
  }
  w.PutU64(num_rows);
  w.PutVarint(row_groups.size());
  for (const auto& rg : row_groups) {
    w.PutU64(rg.num_rows);
    LAMBADA_CHECK_EQ(rg.columns.size(), schema.num_fields());
    for (size_t c = 0; c < rg.columns.size(); ++c) {
      const auto& cc = rg.columns[c];
      w.PutU64(cc.offset);
      w.PutU64(cc.compressed_size);
      w.PutU64(cc.uncompressed_size);
      w.PutU8(static_cast<uint8_t>(cc.encoding));
      w.PutU8(static_cast<uint8_t>(cc.codec));
      w.PutU8(cc.stats.valid ? 1 : 0);
      if (cc.stats.valid) {
        if (schema.field(c).type == DataType::kInt64) {
          w.PutI64(cc.stats.min_i64);
          w.PutI64(cc.stats.max_i64);
        } else {
          w.PutF64(cc.stats.min_f64);
          w.PutF64(cc.stats.max_f64);
        }
      }
    }
  }
  return w.Take();
}

Result<FileMetadata> FileMetadata::Parse(const uint8_t* data, size_t size) {
  BinaryReader r(data, size);
  ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != 1) return Status::IOError("unsupported footer version");
  ASSIGN_OR_RETURN(uint64_t num_fields, r.GetVarint());
  if (num_fields > 100000) return Status::IOError("implausible field count");
  std::vector<engine::Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.GetString());
    ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type > 1) return Status::IOError("unknown data type in footer");
    fields.push_back(engine::Field{name, static_cast<DataType>(type)});
  }
  FileMetadata meta;
  meta.schema = engine::Schema(std::move(fields));
  ASSIGN_OR_RETURN(meta.num_rows, r.GetU64());
  ASSIGN_OR_RETURN(uint64_t num_rgs, r.GetVarint());
  if (num_rgs > 10000000) return Status::IOError("implausible row groups");
  meta.row_groups.reserve(num_rgs);
  for (uint64_t g = 0; g < num_rgs; ++g) {
    RowGroupMeta rg;
    ASSIGN_OR_RETURN(rg.num_rows, r.GetU64());
    rg.columns.reserve(num_fields);
    for (uint64_t c = 0; c < num_fields; ++c) {
      ColumnChunkMeta cc;
      ASSIGN_OR_RETURN(cc.offset, r.GetU64());
      ASSIGN_OR_RETURN(cc.compressed_size, r.GetU64());
      ASSIGN_OR_RETURN(cc.uncompressed_size, r.GetU64());
      ASSIGN_OR_RETURN(uint8_t enc, r.GetU8());
      if (enc > kMaxEncoding) {
        return Status::IOError("unknown encoding in footer");
      }
      cc.encoding = static_cast<Encoding>(enc);
      ASSIGN_OR_RETURN(uint8_t codec, r.GetU8());
      if (codec > 3) return Status::IOError("unknown codec in footer");
      cc.codec = static_cast<compress::CodecId>(codec);
      ASSIGN_OR_RETURN(uint8_t has_stats, r.GetU8());
      if (has_stats != 0) {
        cc.stats.valid = true;
        if (meta.schema.field(c).type == DataType::kInt64) {
          ASSIGN_OR_RETURN(cc.stats.min_i64, r.GetI64());
          ASSIGN_OR_RETURN(cc.stats.max_i64, r.GetI64());
        } else {
          ASSIGN_OR_RETURN(cc.stats.min_f64, r.GetF64());
          ASSIGN_OR_RETURN(cc.stats.max_f64, r.GetF64());
        }
      }
      rg.columns.push_back(cc);
    }
    meta.row_groups.push_back(std::move(rg));
  }
  if (r.remaining() != 0) return Status::IOError("footer has trailing bytes");
  return meta;
}

}  // namespace lambada::format
