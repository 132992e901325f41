#ifndef LAMBADA_ENGINE_TABLE_H_
#define LAMBADA_ENGINE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace lambada::engine {

/// Column data types. The paper's prototype supports numbers only ("our
/// prototype does not support strings yet", Section 5.1); so does ours.
enum class DataType : uint8_t { kInt64 = 0, kFloat64 = 1 };

std::string_view DataTypeName(DataType t);

/// A named, typed column in a schema.
struct Field {
  std::string name;
  DataType type;

  bool operator==(const Field& other) const = default;
};

/// An ordered list of fields. Shared immutably between chunks and plans.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  const std::vector<Field>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of the field named `name`, or -1.
  int FieldIndex(std::string_view name) const;
  Result<size_t> RequireField(std::string_view name) const;

  /// Schema of the given column subset, in the given order.
  Schema Project(const std::vector<int>& indices) const;

  bool operator==(const Schema& other) const = default;
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// A single column of values. Exactly one representation is active,
/// according to `type()`.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {
    if (type == DataType::kInt64) {
      data_ = std::vector<int64_t>{};
    } else {
      data_ = std::vector<double>{};
    }
  }

  static Column Int64(std::vector<int64_t> values) {
    Column c(DataType::kInt64);
    c.data_ = std::move(values);
    return c;
  }
  static Column Float64(std::vector<double> values) {
    Column c(DataType::kFloat64);
    c.data_ = std::move(values);
    return c;
  }

  DataType type() const { return type_; }
  size_t size() const {
    return type_ == DataType::kInt64 ? i64().size() : f64().size();
  }

  const std::vector<int64_t>& i64() const {
    LAMBADA_DCHECK(type_ == DataType::kInt64);
    return std::get<std::vector<int64_t>>(data_);
  }
  std::vector<int64_t>& mutable_i64() {
    LAMBADA_DCHECK(type_ == DataType::kInt64);
    return std::get<std::vector<int64_t>>(data_);
  }
  const std::vector<double>& f64() const {
    LAMBADA_DCHECK(type_ == DataType::kFloat64);
    return std::get<std::vector<double>>(data_);
  }
  std::vector<double>& mutable_f64() {
    LAMBADA_DCHECK(type_ == DataType::kFloat64);
    return std::get<std::vector<double>>(data_);
  }

  /// Value of row `i` widened to double (for expressions mixing types).
  double ValueAsDouble(size_t i) const {
    return type_ == DataType::kInt64 ? static_cast<double>(i64()[i])
                                     : f64()[i];
  }
  /// Value of row `i` as int64 (truncates doubles).
  int64_t ValueAsInt64(size_t i) const {
    return type_ == DataType::kInt64 ? i64()[i]
                                     : static_cast<int64_t>(f64()[i]);
  }

  /// New column containing the rows where `keep` is true.
  Column Filter(const std::vector<bool>& keep) const;

  /// New column containing rows [begin, end).
  Column Slice(size_t begin, size_t end) const;

  /// Heap bytes held by this column.
  int64_t memory_bytes() const {
    return static_cast<int64_t>(size()) * 8;
  }

 private:
  DataType type_;
  std::variant<std::vector<int64_t>, std::vector<double>> data_;
};

/// A horizontal slice of a table: equal-length columns plus their schema.
/// This is the unit of data flowing between operators and through the
/// exchange.
class TableChunk {
 public:
  TableChunk() : schema_(std::make_shared<Schema>()) {}
  TableChunk(SchemaPtr schema, std::vector<Column> columns);

  const SchemaPtr& schema() const { return schema_; }
  const std::vector<Column>& columns() const { return columns_; }
  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// An empty chunk with the given schema (zero rows, right column types).
  static TableChunk Empty(SchemaPtr schema);

  /// Chunk containing the given columns only (shares nothing; copies).
  Result<TableChunk> Project(const std::vector<int>& indices) const;

  /// Chunk containing rows where `keep` is true.
  TableChunk Filter(const std::vector<bool>& keep) const;

  /// Chunk containing rows [begin, end).
  TableChunk Slice(size_t begin, size_t end) const;

  /// Appends all rows of `other` (schemas must match).
  Status Append(const TableChunk& other);

  int64_t memory_bytes() const;

 private:
  SchemaPtr schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// Concatenates chunks (schemas must match). Empty input gives an empty
/// chunk with a null schema.
Result<TableChunk> ConcatChunks(const std::vector<TableChunk>& chunks);

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_TABLE_H_
