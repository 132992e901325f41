#include "format/encoding.h"

#include <algorithm>
#include <cstring>

#include "common/binio.h"

namespace lambada::format {

using engine::Column;
using engine::DataType;

namespace {

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Differences between neighbouring values wrap in uint64 (INT64_MAX -
// INT64_MIN would be signed overflow); zigzag round-trips the wrapped
// value exactly, and the decoder's wrapping sum restores the original.
int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

std::vector<uint8_t> EncodePlain(const Column& c) {
  std::vector<uint8_t> out(c.size() * 8);
  // An empty column's data() may be null, which memcpy must not get.
  if (out.empty()) return out;
  if (c.type() == DataType::kInt64) {
    std::memcpy(out.data(), c.i64().data(), out.size());
  } else {
    std::memcpy(out.data(), c.f64().data(), out.size());
  }
  return out;
}

Result<Column> DecodePlain(const uint8_t* data, size_t size, DataType type,
                           size_t num_rows) {
  if (size != num_rows * 8) {
    return Status::IOError("plain encoding: size mismatch");
  }
  if (type == DataType::kInt64) {
    std::vector<int64_t> v(num_rows);
    if (size > 0) std::memcpy(v.data(), data, size);
    return Column::Int64(std::move(v));
  }
  std::vector<double> v(num_rows);
  if (size > 0) std::memcpy(v.data(), data, size);
  return Column::Float64(std::move(v));
}

std::vector<uint8_t> EncodeDelta(const Column& c) {
  BinaryWriter w;
  const auto& v = c.i64();
  int64_t prev = 0;
  for (int64_t x : v) {
    w.PutVarint(ZigzagEncode(WrappingSub(x, prev)));
    prev = x;
  }
  return w.Take();
}

Result<Column> DecodeDelta(const uint8_t* data, size_t size,
                           size_t num_rows) {
  BinaryReader r(data, size);
  std::vector<int64_t> v;
  v.reserve(num_rows);
  int64_t prev = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    ASSIGN_OR_RETURN(uint64_t z, r.GetVarint());
    prev = WrappingAdd(prev, ZigzagDecode(z));
    v.push_back(prev);
  }
  if (r.remaining() != 0) {
    return Status::IOError("delta encoding: trailing bytes");
  }
  return Column::Int64(std::move(v));
}

std::vector<uint8_t> EncodeDict(const Column& c) {
  const auto& v = c.i64();
  // The dictionary is the sorted distinct values; a row's code is its
  // value's rank in it.
  std::vector<int64_t> dict(v.begin(), v.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  BinaryWriter w;
  w.PutVarint(dict.size());
  int64_t prev = 0;
  for (int64_t value : dict) {
    // Sorted: deltas are small.
    w.PutVarint(ZigzagEncode(WrappingSub(value, prev)));
    prev = value;
  }
  for (int64_t x : v) {
    w.PutVarint(static_cast<uint64_t>(
        std::lower_bound(dict.begin(), dict.end(), x) - dict.begin()));
  }
  return w.Take();
}

std::vector<uint8_t> EncodeRle(const Column& c) {
  BinaryWriter w;
  if (c.type() == DataType::kInt64) {
    const auto& v = c.i64();
    int64_t prev_run = 0;
    size_t i = 0;
    while (i < v.size()) {
      size_t j = i;
      while (j < v.size() && v[j] == v[i]) ++j;
      w.PutVarint(j - i);
      w.PutVarint(ZigzagEncode(WrappingSub(v[i], prev_run)));
      prev_run = v[i];
      i = j;
    }
  } else {
    const auto& v = c.f64();
    size_t i = 0;
    while (i < v.size()) {
      // Bit-pattern equality: NaNs and signed zeros round-trip exactly.
      uint64_t bits;
      std::memcpy(&bits, &v[i], 8);
      size_t j = i;
      for (; j < v.size(); ++j) {
        uint64_t b;
        std::memcpy(&b, &v[j], 8);
        if (b != bits) break;
      }
      w.PutVarint(j - i);
      w.PutF64(v[i]);
      i = j;
    }
  }
  return w.Take();
}

Result<Column> DecodeRle(const uint8_t* data, size_t size, DataType type,
                         size_t num_rows) {
  BinaryReader r(data, size);
  if (type == DataType::kInt64) {
    std::vector<int64_t> v;
    v.reserve(num_rows);
    int64_t prev_run = 0;
    while (v.size() < num_rows) {
      ASSIGN_OR_RETURN(uint64_t run, r.GetVarint());
      if (run == 0 || run > num_rows - v.size()) {
        return Status::IOError("rle: bad run length");
      }
      ASSIGN_OR_RETURN(uint64_t z, r.GetVarint());
      prev_run = WrappingAdd(prev_run, ZigzagDecode(z));
      v.insert(v.end(), static_cast<size_t>(run), prev_run);
    }
    if (r.remaining() != 0) return Status::IOError("rle: trailing bytes");
    return Column::Int64(std::move(v));
  }
  std::vector<double> v;
  v.reserve(num_rows);
  while (v.size() < num_rows) {
    ASSIGN_OR_RETURN(uint64_t run, r.GetVarint());
    if (run == 0 || run > num_rows - v.size()) {
      return Status::IOError("rle: bad run length");
    }
    ASSIGN_OR_RETURN(double value, r.GetF64());
    v.insert(v.end(), static_cast<size_t>(run), value);
  }
  if (r.remaining() != 0) return Status::IOError("rle: trailing bytes");
  return Column::Float64(std::move(v));
}

}  // namespace

Result<DictView> DecodeDictView(const uint8_t* data, size_t size,
                                size_t num_rows) {
  BinaryReader r(data, size);
  ASSIGN_OR_RETURN(uint64_t dict_size, r.GetVarint());
  if (dict_size > size) return Status::IOError("dict: implausible size");
  DictView view;
  view.values.reserve(dict_size);
  int64_t prev = 0;
  for (uint64_t i = 0; i < dict_size; ++i) {
    ASSIGN_OR_RETURN(uint64_t z, r.GetVarint());
    prev = WrappingAdd(prev, ZigzagDecode(z));
    view.values.push_back(prev);
  }
  view.codes.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    ASSIGN_OR_RETURN(uint64_t idx, r.GetVarint());
    if (idx >= view.values.size()) return Status::IOError("dict: bad index");
    view.codes.push_back(static_cast<uint32_t>(idx));
  }
  if (r.remaining() != 0) {
    return Status::IOError("dict encoding: trailing bytes");
  }
  return view;
}

Column MaterializeDictView(const DictView& view) {
  std::vector<int64_t> v;
  v.reserve(view.codes.size());
  for (uint32_t code : view.codes) v.push_back(view.values[code]);
  return Column::Int64(std::move(v));
}

namespace {

Result<Column> DecodeDict(const uint8_t* data, size_t size,
                          size_t num_rows) {
  ASSIGN_OR_RETURN(DictView view, DecodeDictView(data, size, num_rows));
  return MaterializeDictView(view);
}

}  // namespace

Result<std::vector<uint8_t>> EncodeColumn(const Column& column,
                                          Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return EncodePlain(column);
    case Encoding::kDelta:
      if (column.type() != DataType::kInt64) {
        return Status::Invalid("delta encoding requires int64");
      }
      return EncodeDelta(column);
    case Encoding::kDict:
      if (column.type() != DataType::kInt64) {
        return Status::Invalid("dict encoding requires int64");
      }
      return EncodeDict(column);
    case Encoding::kRle:
      return EncodeRle(column);
  }
  return Status::Invalid("unknown encoding");
}

Result<Column> DecodeColumn(const uint8_t* data, size_t size, DataType type,
                            Encoding encoding, size_t num_rows) {
  switch (encoding) {
    case Encoding::kPlain:
      return DecodePlain(data, size, type, num_rows);
    case Encoding::kDelta:
      if (type != DataType::kInt64) {
        return Status::IOError("delta encoding on non-int64 column");
      }
      return DecodeDelta(data, size, num_rows);
    case Encoding::kDict:
      if (type != DataType::kInt64) {
        return Status::IOError("dict encoding on non-int64 column");
      }
      return DecodeDict(data, size, num_rows);
    case Encoding::kRle:
      return DecodeRle(data, size, type, num_rows);
  }
  return Status::IOError("unknown encoding");
}

EncodedColumn EncodeColumnAuto(const Column& column) {
  const bool nonempty = column.size() > 0;
  const bool try_int = column.type() == DataType::kInt64 && nonempty;
  std::vector<uint8_t> plain = EncodePlain(column);
  std::vector<uint8_t> delta, dict, rle;
  if (try_int) {
    delta = EncodeDelta(column);
    dict = EncodeDict(column);
  }
  if (nonempty) rle = EncodeRle(column);
  // Decide on sizes alone, moving no buffer until the winner is final.
  Encoding winner = Encoding::kPlain;
  size_t winner_size = plain.size();
  if (try_int) {
    if (delta.size() < winner_size) {
      winner = Encoding::kDelta;
      winner_size = delta.size();
    }
    if (dict.size() < winner_size) {
      winner = Encoding::kDict;
      winner_size = dict.size();
    }
  }
  if (nonempty && rle.size() < winner_size) {
    winner = Encoding::kRle;
    winner_size = rle.size();
  }
  // Dict is strategically preferred when it is within a few percent of the
  // best: it is the only encoding the reader can evaluate predicates on
  // without materializing (code-range push-down), worth far more than the
  // last percent of size. On small-range integers dict and delta are both
  // one byte per value, so without this tie-break delta would always edge
  // out dict by its few bytes of dictionary header.
  if (try_int && winner != Encoding::kDict &&
      static_cast<double>(dict.size()) <=
          1.05 * static_cast<double>(winner_size)) {
    winner = Encoding::kDict;
  }
  switch (winner) {
    case Encoding::kDelta:
      return EncodedColumn{Encoding::kDelta, std::move(delta)};
    case Encoding::kDict:
      return EncodedColumn{Encoding::kDict, std::move(dict)};
    case Encoding::kRle:
      return EncodedColumn{Encoding::kRle, std::move(rle)};
    case Encoding::kPlain:
      break;
  }
  return EncodedColumn{Encoding::kPlain, std::move(plain)};
}

}  // namespace lambada::format
