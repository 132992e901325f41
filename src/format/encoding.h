#ifndef LAMBADA_FORMAT_ENCODING_H_
#define LAMBADA_FORMAT_ENCODING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace lambada::format {

/// Value-level encodings applied before block compression, playing the role
/// of Parquet's "light-weight compression scheme" (Section 4.3.2).
///
/// Tags follow the serialization contract of core/plan.h: append-only,
/// never renumbered or reused, and readers bounds-check them (kMaxEncoding
/// below, checked by FileMetadata::Parse). The wire layout of each
/// encoding is specified in docs/FORMAT.md; the tag-name table there is
/// kept in sync with this enum by scripts/check_docs.py.
enum class Encoding : uint8_t {
  kPlain = 0,  ///< Raw little-endian values.
  kDelta = 1,  ///< int64 only: first value raw, then zigzag varint deltas.
               ///< Very effective on sorted columns like l_shipdate.
  kDict = 2,   ///< int64 only: distinct-value dictionary + varint indices.
               ///< Effective on low-cardinality columns like l_returnflag.
  kRle = 3,    ///< Run-length: (length, value) runs. int64 values are
               ///< zigzag varint deltas between run values; float64 values
               ///< are raw. Effective on sorted or constant-heavy columns.
};

/// Highest valid Encoding tag; footer parsing rejects anything above it.
inline constexpr uint8_t kMaxEncoding = static_cast<uint8_t>(Encoding::kRle);

/// Encodes a column into bytes using the given encoding. Returns
/// InvalidArgument if the encoding does not apply to the column type.
Result<std::vector<uint8_t>> EncodeColumn(const engine::Column& column,
                                          Encoding encoding);

/// Decodes `num_rows` values of the given type.
Result<engine::Column> DecodeColumn(const uint8_t* data, size_t size,
                                    engine::DataType type, Encoding encoding,
                                    size_t num_rows);

/// Code-domain view of a kDict column chunk: the sorted distinct values
/// plus one code per row (codes index `values`). Lets the scan evaluate
/// interval predicates on the small code space — a value interval maps to
/// a contiguous code range because the dictionary is sorted — without
/// materializing the column first.
struct DictView {
  std::vector<int64_t> values;  ///< Sorted ascending, no duplicates.
  std::vector<uint32_t> codes;  ///< One per row; codes[i] < values.size().
};

/// Decodes a kDict chunk into its dictionary + codes (no materialization).
Result<DictView> DecodeDictView(const uint8_t* data, size_t size,
                                size_t num_rows);

/// Materializes a DictView into a plain int64 column (gather).
engine::Column MaterializeDictView(const DictView& view);

/// Picks the smallest applicable encoding for the column by encoding
/// candidates and comparing sizes (cheap at our row-group sizes), with one
/// strategic exception: dict wins whenever it is within 5% of the best,
/// because only dict chunks support the reader's code-range predicate
/// push-down. Returns the winning encoding and its bytes.
struct EncodedColumn {
  Encoding encoding = Encoding::kPlain;
  std::vector<uint8_t> bytes;
};
EncodedColumn EncodeColumnAuto(const engine::Column& column);

}  // namespace lambada::format

#endif  // LAMBADA_FORMAT_ENCODING_H_
