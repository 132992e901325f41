#include "format/writer.h"

#include <cstring>

#include "common/binio.h"

namespace lambada::format {

using engine::TableChunk;

FileWriter::FileWriter(engine::SchemaPtr schema, const WriterOptions& options)
    : schema_(std::move(schema)),
      options_(options),
      pending_(TableChunk::Empty(schema_)) {
  LAMBADA_CHECK(schema_ != nullptr);
  LAMBADA_CHECK_GT(options_.row_group_rows, 0);
  metadata_.schema = *schema_;
  file_.insert(file_.end(), kMagic, kMagic + 4);
}

Status FileWriter::Append(const TableChunk& chunk) {
  if (finished_) return Status::FailedPrecondition("writer finished");
  if (!(*chunk.schema() == *schema_)) {
    return Status::Invalid("chunk schema does not match writer schema");
  }
  RETURN_NOT_OK(pending_.Append(chunk));
  // Cut every full row group as a row-range slice, then keep only the
  // remainder: each pending row is copied once more, whatever the number
  // of groups.
  const size_t group_rows = static_cast<size_t>(options_.row_group_rows);
  size_t begin = 0;
  while (pending_.num_rows() - begin >= group_rows) {
    RETURN_NOT_OK(FlushRowGroup(pending_.Slice(begin, begin + group_rows)));
    begin += group_rows;
  }
  if (begin > 0) pending_ = pending_.Slice(begin, pending_.num_rows());
  return Status::OK();
}

Status FileWriter::FlushRowGroup(const TableChunk& group) {
  RowGroupMeta rg;
  rg.num_rows = group.num_rows();
  const auto& codec = compress::GetCodec(options_.codec);
  // Column chunks encode, compress and append one at a time, so transient
  // memory beyond file_ is one encoded and one compressed column chunk.
  for (size_t c = 0; c < group.num_columns(); ++c) {
    const engine::Column& col = group.column(c);
    EncodedColumn encoded;
    if (options_.auto_encoding) {
      encoded = EncodeColumnAuto(col);
    } else {
      ASSIGN_OR_RETURN(auto bytes, EncodeColumn(col, Encoding::kPlain));
      encoded = EncodedColumn{Encoding::kPlain, std::move(bytes)};
    }
    std::vector<uint8_t> compressed = codec.Compress(encoded.bytes);
    ColumnChunkMeta cc;
    cc.offset = file_.size();
    cc.compressed_size = compressed.size();
    cc.uncompressed_size = encoded.bytes.size();
    cc.encoding = encoded.encoding;
    cc.codec = options_.codec;
    cc.stats = ColumnStats::Compute(col);
    file_.insert(file_.end(), compressed.begin(), compressed.end());
    rg.columns.push_back(cc);
  }
  metadata_.num_rows += rg.num_rows;
  metadata_.row_groups.push_back(std::move(rg));
  return Status::OK();
}

Result<std::vector<uint8_t>> FileWriter::Finish() {
  if (finished_) return Status::FailedPrecondition("writer finished");
  // Append left fewer than row_group_rows pending: one last group.
  if (pending_.num_rows() > 0) RETURN_NOT_OK(FlushRowGroup(pending_));
  finished_ = true;
  std::vector<uint8_t> footer = metadata_.Serialize();
  file_.insert(file_.end(), footer.begin(), footer.end());
  uint32_t footer_len = static_cast<uint32_t>(footer.size());
  uint8_t len_bytes[4];
  std::memcpy(len_bytes, &footer_len, 4);
  file_.insert(file_.end(), len_bytes, len_bytes + 4);
  file_.insert(file_.end(), kMagic, kMagic + 4);
  return std::move(file_);
}

Result<std::vector<uint8_t>> FileWriter::WriteTable(
    const TableChunk& table, const WriterOptions& options) {
  FileWriter writer(table.schema(), options);
  RETURN_NOT_OK(writer.Append(table));
  return writer.Finish();
}

}  // namespace lambada::format
