#include "engine/table.h"

#include <algorithm>
#include <sstream>

namespace lambada::engine {

std::string_view DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat64:
      return "float64";
  }
  return "unknown";
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<size_t> Schema::RequireField(std::string_view name) const {
  int i = FieldIndex(name);
  if (i < 0) {
    return Status::Invalid("no such column: " + std::string(name));
  }
  return static_cast<size_t>(i);
}

Schema Schema::Project(const std::vector<int>& indices) const {
  std::vector<Field> out;
  out.reserve(indices.size());
  for (int i : indices) {
    LAMBADA_CHECK_GE(i, 0);
    LAMBADA_CHECK_LT(static_cast<size_t>(i), fields_.size());
    out.push_back(fields_[i]);
  }
  return Schema(std::move(out));
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields_[i].name << ": " << DataTypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

namespace {

size_t CountKept(const std::vector<bool>& keep) {
  return static_cast<size_t>(std::count(keep.begin(), keep.end(), true));
}

template <typename T>
std::vector<T> KeepRows(const std::vector<T>& src,
                        const std::vector<bool>& keep, size_t kept) {
  std::vector<T> dst;
  dst.reserve(kept);
  for (size_t i = 0; i < src.size(); ++i) {
    if (keep[i]) dst.push_back(src[i]);
  }
  return dst;
}

/// `kept` is the number of true entries in `keep`: the output is reserved
/// to exactly that size.
Column FilterColumn(const Column& c, const std::vector<bool>& keep,
                    size_t kept) {
  LAMBADA_CHECK_EQ(keep.size(), c.size());
  if (c.type() == DataType::kInt64) {
    return Column::Int64(KeepRows(c.i64(), keep, kept));
  }
  return Column::Float64(KeepRows(c.f64(), keep, kept));
}

}  // namespace

Column Column::Filter(const std::vector<bool>& keep) const {
  return FilterColumn(*this, keep, CountKept(keep));
}

Column Column::Slice(size_t begin, size_t end) const {
  LAMBADA_CHECK_LE(begin, end);
  LAMBADA_CHECK_LE(end, size());
  if (type_ == DataType::kInt64) {
    const int64_t* src = i64().data();
    return Int64(std::vector<int64_t>(src + begin, src + end));
  }
  const double* src = f64().data();
  return Float64(std::vector<double>(src + begin, src + end));
}

TableChunk::TableChunk(SchemaPtr schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  LAMBADA_CHECK(schema_ != nullptr);
  LAMBADA_CHECK_EQ(schema_->num_fields(), columns_.size());
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
  for (const auto& c : columns_) {
    LAMBADA_CHECK_EQ(c.size(), num_rows_);
  }
}

TableChunk TableChunk::Empty(SchemaPtr schema) {
  std::vector<Column> cols;
  cols.reserve(schema->num_fields());
  for (const auto& f : schema->fields()) {
    cols.emplace_back(f.type);
  }
  return TableChunk(std::move(schema), std::move(cols));
}

Result<TableChunk> TableChunk::Project(const std::vector<int>& indices) const {
  std::vector<Column> cols;
  cols.reserve(indices.size());
  for (int i : indices) {
    if (i < 0 || static_cast<size_t>(i) >= columns_.size()) {
      return Status::Invalid("projection index out of range");
    }
    cols.push_back(columns_[static_cast<size_t>(i)]);
  }
  auto schema = std::make_shared<Schema>(schema_->Project(indices));
  return TableChunk(std::move(schema), std::move(cols));
}

TableChunk TableChunk::Filter(const std::vector<bool>& keep) const {
  const size_t kept = CountKept(keep);
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) {
    cols.push_back(FilterColumn(c, keep, kept));
  }
  return TableChunk(schema_, std::move(cols));
}

TableChunk TableChunk::Slice(size_t begin, size_t end) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) {
    cols.push_back(c.Slice(begin, end));
  }
  return TableChunk(schema_, std::move(cols));
}

Status TableChunk::Append(const TableChunk& other) {
  if (!(*schema_ == *other.schema_)) {
    return Status::Invalid("appending chunk with different schema");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].type() == DataType::kInt64) {
      auto& dst = columns_[c].mutable_i64();
      const auto& src = other.columns_[c].i64();
      dst.insert(dst.end(), src.begin(), src.end());
    } else {
      auto& dst = columns_[c].mutable_f64();
      const auto& src = other.columns_[c].f64();
      dst.insert(dst.end(), src.begin(), src.end());
    }
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

int64_t TableChunk::memory_bytes() const {
  int64_t total = 0;
  for (const auto& c : columns_) total += c.memory_bytes();
  return total;
}

Result<TableChunk> ConcatChunks(const std::vector<TableChunk>& chunks) {
  if (chunks.empty()) return TableChunk();
  TableChunk out = TableChunk::Empty(chunks[0].schema());
  for (const auto& c : chunks) {
    RETURN_NOT_OK(out.Append(c));
  }
  return out;
}

}  // namespace lambada::engine
