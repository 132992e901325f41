#include "engine/aggregate.h"

#include <algorithm>
#include <limits>

namespace lambada::engine {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kCount:
      return "count";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

void AggSpec::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind));
  w->PutString(output_name);
  w->PutU8(input != nullptr ? 1 : 0);
  if (input != nullptr) input->Serialize(w);
}

Result<AggSpec> AggSpec::Deserialize(BinaryReader* r) {
  ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(AggKind::kAvg)) {
    return Status::IOError("bad aggregate kind");
  }
  ASSIGN_OR_RETURN(std::string name, r->GetString());
  ASSIGN_OR_RETURN(uint8_t has_input, r->GetU8());
  ExprPtr input;
  if (has_input != 0) {
    ASSIGN_OR_RETURN(input, Expr::Deserialize(r));
  }
  return AggSpec{static_cast<AggKind>(kind), std::move(input),
                 std::move(name)};
}

namespace {

/// Number of state columns for one aggregate.
size_t StateColumns(AggKind kind) {
  return kind == AggKind::kAvg ? 2 : 1;
}

}  // namespace

HashAggregator::HashAggregator(std::vector<std::string> group_by,
                               std::vector<AggSpec> aggs)
    : group_by_(std::move(group_by)), aggs_(std::move(aggs)) {}

size_t HashAggregator::StateWidth() const {
  size_t width = 0;
  for (const auto& a : aggs_) width += StateColumns(a.kind);
  return width;
}

HashAggregator::GroupState& HashAggregator::GetOrCreateGroup(
    const std::vector<int64_t>& keys) {
  auto it = index_.find(keys);
  if (it != index_.end()) return groups_[it->second];
  GroupState gs;
  gs.keys = keys;
  gs.acc.assign(StateWidth(), 0.0);
  gs.seen.assign(StateWidth(), false);
  groups_.push_back(std::move(gs));
  index_.emplace(keys, groups_.size() - 1);
  return groups_.back();
}

Status HashAggregator::ConsumeInput(const TableChunk& chunk) {
  size_t n = chunk.num_rows();
  if (n == 0) return Status::OK();
  // Resolve group-by key columns.
  std::vector<const Column*> key_cols;
  key_cols.reserve(group_by_.size());
  for (const auto& name : group_by_) {
    ASSIGN_OR_RETURN(size_t idx, chunk.schema()->RequireField(name));
    if (chunk.column(idx).type() != DataType::kInt64) {
      return Status::Invalid("group-by key must be int64: " + name);
    }
    key_cols.push_back(&chunk.column(idx));
  }
  // Evaluate aggregate inputs.
  std::vector<Column> inputs;
  inputs.reserve(aggs_.size());
  for (const auto& a : aggs_) {
    if (a.input != nullptr) {
      ASSIGN_OR_RETURN(Column c, a.input->Evaluate(chunk));
      inputs.push_back(std::move(c));
    } else {
      inputs.emplace_back(DataType::kInt64);  // Placeholder for COUNT.
    }
  }
  std::vector<int64_t> keys(group_by_.size());
  for (size_t row = 0; row < n; ++row) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      keys[k] = key_cols[k]->i64()[row];
    }
    GroupState& gs = GetOrCreateGroup(keys);
    size_t slot = 0;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].kind) {
        case AggKind::kSum:
          gs.acc[slot] += inputs[a].ValueAsDouble(row);
          break;
        case AggKind::kMin: {
          double v = inputs[a].ValueAsDouble(row);
          if (!gs.seen[slot] || v < gs.acc[slot]) gs.acc[slot] = v;
          gs.seen[slot] = true;
          break;
        }
        case AggKind::kMax: {
          double v = inputs[a].ValueAsDouble(row);
          if (!gs.seen[slot] || v > gs.acc[slot]) gs.acc[slot] = v;
          gs.seen[slot] = true;
          break;
        }
        case AggKind::kCount:
          gs.acc[slot] += 1;
          break;
        case AggKind::kAvg:
          gs.acc[slot] += inputs[a].ValueAsDouble(row);
          gs.acc[slot + 1] += 1;
          break;
      }
      slot += StateColumns(aggs_[a].kind);
    }
  }
  return Status::OK();
}

Status HashAggregator::MergePartial(const TableChunk& partial) {
  SchemaPtr expected = PartialSchema();
  if (!(*partial.schema() == *expected)) {
    return Status::Invalid("partial chunk schema mismatch: got " +
                           partial.schema()->ToString() + ", want " +
                           expected->ToString());
  }
  size_t n = partial.num_rows();
  std::vector<int64_t> keys(group_by_.size());
  for (size_t row = 0; row < n; ++row) {
    for (size_t k = 0; k < group_by_.size(); ++k) {
      keys[k] = partial.column(k).i64()[row];
    }
    GroupState& gs = GetOrCreateGroup(keys);
    size_t slot = 0;
    size_t col = group_by_.size();
    for (const auto& a : aggs_) {
      switch (a.kind) {
        case AggKind::kSum:
          gs.acc[slot] += partial.column(col).f64()[row];
          break;
        case AggKind::kMin: {
          double v = partial.column(col).f64()[row];
          if (!gs.seen[slot] || v < gs.acc[slot]) gs.acc[slot] = v;
          gs.seen[slot] = true;
          break;
        }
        case AggKind::kMax: {
          double v = partial.column(col).f64()[row];
          if (!gs.seen[slot] || v > gs.acc[slot]) gs.acc[slot] = v;
          gs.seen[slot] = true;
          break;
        }
        case AggKind::kCount:
          gs.acc[slot] += static_cast<double>(partial.column(col).i64()[row]);
          break;
        case AggKind::kAvg:
          gs.acc[slot] += partial.column(col).f64()[row];
          gs.acc[slot + 1] +=
              static_cast<double>(partial.column(col + 1).i64()[row]);
          break;
      }
      slot += StateColumns(a.kind);
      col += StateColumns(a.kind);
    }
  }
  return Status::OK();
}

SchemaPtr HashAggregator::PartialSchema() const {
  std::vector<Field> fields;
  for (const auto& g : group_by_) {
    fields.push_back(Field{g, DataType::kInt64});
  }
  for (const auto& a : aggs_) {
    switch (a.kind) {
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
        fields.push_back(Field{a.output_name, DataType::kFloat64});
        break;
      case AggKind::kCount:
        fields.push_back(Field{a.output_name, DataType::kInt64});
        break;
      case AggKind::kAvg:
        fields.push_back(Field{a.output_name + "$sum", DataType::kFloat64});
        fields.push_back(Field{a.output_name + "$count", DataType::kInt64});
        break;
    }
  }
  return std::make_shared<Schema>(std::move(fields));
}

SchemaPtr HashAggregator::FinalSchema() const {
  std::vector<Field> fields;
  for (const auto& g : group_by_) {
    fields.push_back(Field{g, DataType::kInt64});
  }
  for (const auto& a : aggs_) {
    fields.push_back(Field{a.output_name, a.kind == AggKind::kCount
                                              ? DataType::kInt64
                                              : DataType::kFloat64});
  }
  return std::make_shared<Schema>(std::move(fields));
}

TableChunk HashAggregator::PartialState() const {
  SchemaPtr schema = PartialSchema();
  std::vector<Column> cols;
  for (const auto& f : schema->fields()) cols.emplace_back(f.type);
  // Deterministic output order: sort groups by key.
  std::vector<const GroupState*> ordered;
  ordered.reserve(groups_.size());
  for (const auto& g : groups_) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(),
            [](const GroupState* a, const GroupState* b) {
              return a->keys < b->keys;
            });
  for (const GroupState* g : ordered) {
    size_t col = 0;
    for (size_t k = 0; k < group_by_.size(); ++k, ++col) {
      cols[col].mutable_i64().push_back(g->keys[k]);
    }
    size_t slot = 0;
    for (const auto& a : aggs_) {
      switch (a.kind) {
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          cols[col++].mutable_f64().push_back(g->acc[slot]);
          break;
        case AggKind::kCount:
          cols[col++].mutable_i64().push_back(
              static_cast<int64_t>(g->acc[slot]));
          break;
        case AggKind::kAvg:
          cols[col++].mutable_f64().push_back(g->acc[slot]);
          cols[col++].mutable_i64().push_back(
              static_cast<int64_t>(g->acc[slot + 1]));
          break;
      }
      slot += StateColumns(a.kind);
    }
  }
  return TableChunk(std::move(schema), std::move(cols));
}

TableChunk HashAggregator::Finalize() const {
  SchemaPtr schema = FinalSchema();
  std::vector<Column> cols;
  for (const auto& f : schema->fields()) cols.emplace_back(f.type);
  std::vector<const GroupState*> ordered;
  ordered.reserve(groups_.size());
  for (const auto& g : groups_) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(),
            [](const GroupState* a, const GroupState* b) {
              return a->keys < b->keys;
            });
  // A global aggregate over zero rows still yields one row, holding its
  // empty state: COUNT is 0, and SUM, AVG, MIN and MAX are 0 too because
  // the engine has no NULL. A grouped aggregate over zero rows has no
  // groups, hence no rows.
  GroupState empty;
  if (group_by_.empty() && groups_.empty()) {
    empty.acc.assign(StateWidth(), 0.0);
    ordered.push_back(&empty);
  }
  for (const GroupState* g : ordered) {
    size_t col = 0;
    for (size_t k = 0; k < group_by_.size(); ++k, ++col) {
      cols[col].mutable_i64().push_back(g->keys[k]);
    }
    size_t slot = 0;
    for (const auto& a : aggs_) {
      switch (a.kind) {
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          cols[col++].mutable_f64().push_back(g->acc[slot]);
          break;
        case AggKind::kCount:
          cols[col++].mutable_i64().push_back(
              static_cast<int64_t>(g->acc[slot]));
          break;
        case AggKind::kAvg: {
          double count = g->acc[slot + 1];
          cols[col++].mutable_f64().push_back(
              count > 0 ? g->acc[slot] / count : 0.0);
          break;
        }
      }
      slot += StateColumns(a.kind);
    }
  }
  return TableChunk(std::move(schema), std::move(cols));
}

}  // namespace lambada::engine
