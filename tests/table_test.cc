#include <gtest/gtest.h>

#include "engine/table.h"

namespace lambada::engine {
namespace {

SchemaPtr S2() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"a", DataType::kInt64}, {"b", DataType::kFloat64}});
}

TEST(SchemaTest, FieldLookup) {
  auto s = S2();
  EXPECT_EQ(s->FieldIndex("a"), 0);
  EXPECT_EQ(s->FieldIndex("b"), 1);
  EXPECT_EQ(s->FieldIndex("c"), -1);
  EXPECT_FALSE(s->RequireField("c").ok());
  EXPECT_EQ(*s->RequireField("b"), 1u);
}

TEST(SchemaTest, ProjectReorders) {
  auto p = S2()->Project({1, 0});
  EXPECT_EQ(p.field(0).name, "b");
  EXPECT_EQ(p.field(1).name, "a");
}

TEST(ColumnTest, TypedAccessAndWidening) {
  Column c = Column::Int64({1, 2, 3});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c.ValueAsDouble(2), 3.0);
  Column f = Column::Float64({2.5});
  EXPECT_EQ(f.ValueAsInt64(0), 2);
}

TEST(ColumnTest, Filter) {
  Column c = Column::Int64({1, 2, 3, 4});
  Column out = c.Filter({true, false, true, false});
  EXPECT_EQ(out.i64(), (std::vector<int64_t>{1, 3}));
}

TEST(ColumnTest, FilterFloat64KeepsNoneOrAll) {
  Column c = Column::Float64({0.5, 1.5, 2.5});
  EXPECT_EQ(c.Filter({false, false, false}).size(), 0u);
  EXPECT_EQ(c.Filter({true, true, true}).f64(), c.f64());
}

TEST(ColumnTest, SliceRangesBothTypes) {
  Column ints = Column::Int64({10, 11, 12, 13, 14});
  Column floats = Column::Float64({0.5, 1.5, 2.5, 3.5, 4.5});
  struct Range {
    size_t begin, end;
  };
  // Empty (at the front, inside, at the end), full, prefix, suffix, middle.
  for (Range r : {Range{0, 0}, Range{2, 2}, Range{5, 5}, Range{0, 5},
                  Range{0, 2}, Range{3, 5}, Range{1, 4}}) {
    Column si = ints.Slice(r.begin, r.end);
    Column sf = floats.Slice(r.begin, r.end);
    EXPECT_EQ(si.type(), DataType::kInt64);
    EXPECT_EQ(sf.type(), DataType::kFloat64);
    EXPECT_EQ(si.i64(), std::vector<int64_t>(ints.i64().begin() + r.begin,
                                             ints.i64().begin() + r.end))
        << r.begin << ".." << r.end;
    EXPECT_EQ(sf.f64(), std::vector<double>(floats.f64().begin() + r.begin,
                                            floats.f64().begin() + r.end))
        << r.begin << ".." << r.end;
  }
}

TEST(TableChunkTest, SliceMatchesRangeFilter) {
  TableChunk t(S2(), {Column::Int64({1, 2, 3, 4}),
                      Column::Float64({0.5, 1.5, 2.5, 3.5})});
  for (size_t begin = 0; begin <= 4; ++begin) {
    for (size_t end = begin; end <= 4; ++end) {
      std::vector<bool> keep(4, false);
      for (size_t i = begin; i < end; ++i) keep[i] = true;
      TableChunk s = t.Slice(begin, end);
      TableChunk f = t.Filter(keep);
      EXPECT_EQ(s.schema(), t.schema());
      EXPECT_EQ(s.num_rows(), end - begin);
      EXPECT_EQ(s.column(0).i64(), f.column(0).i64());
      EXPECT_EQ(s.column(1).f64(), f.column(1).f64());
    }
  }
  TableChunk empty = TableChunk::Empty(S2()).Slice(0, 0);
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.num_columns(), 2u);
}

TEST(TableChunkTest, ConstructionValidatesLengths) {
  TableChunk t(S2(), {Column::Int64({1, 2}), Column::Float64({0.5, 1.5})});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
}

TEST(TableChunkTest, ProjectAndFilter) {
  TableChunk t(S2(), {Column::Int64({1, 2, 3}),
                      Column::Float64({0.5, 1.5, 2.5})});
  auto p = t.Project({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->schema()->field(0).name, "b");
  TableChunk f = t.Filter({false, true, true});
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.column(0).i64(), (std::vector<int64_t>{2, 3}));
  EXPECT_FALSE(t.Project({5}).ok());
}

TEST(TableChunkTest, AppendChecksSchema) {
  TableChunk a(S2(), {Column::Int64({1}), Column::Float64({0.5})});
  TableChunk b(S2(), {Column::Int64({2}), Column::Float64({1.5})});
  ASSERT_TRUE(a.Append(b).ok());
  EXPECT_EQ(a.num_rows(), 2u);
  auto other = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::kInt64}});
  TableChunk c(other, {Column::Int64({9})});
  EXPECT_FALSE(a.Append(c).ok());
}

TEST(TableChunkTest, ConcatAndEmpty) {
  auto empty = ConcatChunks({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
  TableChunk a(S2(), {Column::Int64({1}), Column::Float64({0.5})});
  TableChunk b(S2(), {Column::Int64({2, 3}), Column::Float64({1.5, 2.5})});
  auto cat = ConcatChunks({a, b});
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->num_rows(), 3u);
  EXPECT_EQ(cat->column(0).i64(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(TableChunkTest, MemoryBytes) {
  TableChunk t(S2(), {Column::Int64({1, 2}), Column::Float64({0.5, 1.5})});
  EXPECT_EQ(t.memory_bytes(), 2 * 2 * 8);
}

}  // namespace
}  // namespace lambada::engine
