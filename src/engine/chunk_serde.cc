#include "engine/chunk_serde.h"

#include <cstring>

#include "common/binio.h"

namespace lambada::engine {

namespace {

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Header: varint(num_cols), per field (varint(name len), name, type byte),
/// varint(num_rows). Column payloads follow, 8 bytes per value.
size_t HeaderSize(const TableChunk& chunk) {
  size_t n = VarintSize(chunk.num_columns());
  for (const auto& f : chunk.schema()->fields()) {
    n += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  return n + VarintSize(chunk.num_rows());
}

const uint8_t* ColumnBytes(const Column& col) {
  return col.type() == DataType::kInt64
             ? reinterpret_cast<const uint8_t*>(col.i64().data())
             : reinterpret_cast<const uint8_t*>(col.f64().data());
}

/// Exact size of SerializeChunk(chunk)'s output, without serializing:
/// what lets combined files be laid out before any byte is copied.
size_t SerializedChunkSize(const TableChunk& chunk) {
  return HeaderSize(chunk) + chunk.num_columns() * chunk.num_rows() * 8;
}

/// Serializes `chunk` into `dst`, which must have room for exactly
/// SerializedChunkSize(chunk) bytes.
void SerializeChunkInto(const TableChunk& chunk, uint8_t* dst) {
  BinaryWriter w;
  w.PutVarint(chunk.num_columns());
  for (const auto& f : chunk.schema()->fields()) {
    w.PutString(f.name);
    w.PutU8(static_cast<uint8_t>(f.type));
  }
  w.PutVarint(chunk.num_rows());
  const size_t header = w.size();
  LAMBADA_DCHECK(header == HeaderSize(chunk));
  std::memcpy(dst, w.bytes().data(), header);
  const size_t rows = chunk.num_rows();
  if (rows == 0) return;  // An empty column's data() may be null.
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    std::memcpy(dst + header + c * rows * 8, ColumnBytes(chunk.column(c)),
                rows * 8);
  }
}

}  // namespace

std::vector<uint8_t> SerializeChunk(const TableChunk& chunk) {
  std::vector<uint8_t> out(SerializedChunkSize(chunk));
  SerializeChunkInto(chunk, out.data());
  return out;
}

Result<TableChunk> DeserializeChunk(const uint8_t* data, size_t size) {
  BinaryReader r(data, size);
  ASSIGN_OR_RETURN(uint64_t num_cols, r.GetVarint());
  if (num_cols > 100000) return Status::IOError("implausible column count");
  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (uint64_t i = 0; i < num_cols; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.GetString());
    ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type > 1) return Status::IOError("bad column type");
    fields.push_back(Field{std::move(name), static_cast<DataType>(type)});
  }
  ASSIGN_OR_RETURN(uint64_t num_rows, r.GetVarint());
  if (num_cols > 0 && num_rows > size / (8 * num_cols)) {
    return Status::IOError("chunk truncated");
  }
  if (r.remaining() < num_rows * num_cols * 8) {
    return Status::IOError("chunk truncated in column data");
  }
  if (r.remaining() > num_rows * num_cols * 8) {
    return Status::IOError("chunk trailing bytes");
  }
  auto schema = std::make_shared<Schema>(std::move(fields));
  const uint8_t* payload = data + r.position();
  std::vector<Column> cols;
  cols.reserve(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    const uint8_t* src = payload + c * num_rows * 8;
    if (schema->field(c).type == DataType::kInt64) {
      std::vector<int64_t> values(num_rows);
      if (num_rows > 0) std::memcpy(values.data(), src, num_rows * 8);
      cols.push_back(Column::Int64(std::move(values)));
    } else {
      std::vector<double> values(num_rows);
      if (num_rows > 0) std::memcpy(values.data(), src, num_rows * 8);
      cols.push_back(Column::Float64(std::move(values)));
    }
  }
  return TableChunk(std::move(schema), std::move(cols));
}

CombinedChunks SerializeChunksCombined(const std::vector<TableChunk>& chunks) {
  CombinedChunks out;
  out.offsets.reserve(chunks.size() + 1);
  size_t total = 0;
  for (const auto& chunk : chunks) {
    out.offsets.push_back(total);
    total += SerializedChunkSize(chunk);
  }
  out.offsets.push_back(total);
  out.bytes.resize(total);
  for (size_t i = 0; i < chunks.size(); ++i) {
    SerializeChunkInto(chunks[i], out.bytes.data() + out.offsets[i]);
  }
  return out;
}

}  // namespace lambada::engine
