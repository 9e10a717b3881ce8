#ifndef FLOOD_STORAGE_TABLE_H_
#define FLOOD_STORAGE_TABLE_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace flood {

/// An immutable in-memory columnar table: `num_dims()` columns of equal
/// length. This is the substrate every index in this repository builds on.
///
/// Indexes are *clustered*: they define a row order and are built over a
/// reordered copy of the table (see Reorder()).
class Table {
 public:
  Table() = default;

  /// Builds a table from per-dimension value vectors. All vectors must have
  /// equal length. Column names are optional ("dim0", "dim1", ... if empty).
  static StatusOr<Table> FromColumns(std::vector<std::vector<Value>> columns,
                                     std::vector<std::string> names = {});

  size_t num_rows() const { return num_rows_; }
  size_t num_dims() const { return columns_.size(); }

  const Column& column(size_t dim) const {
    FLOOD_DCHECK(dim < columns_.size());
    return columns_[dim];
  }

  const std::string& name(size_t dim) const { return names_[dim]; }

  /// Value of `dim` at row `row` (O(1)).
  Value Get(RowId row, size_t dim) const {
    return columns_[dim].Get(static_cast<size_t>(row));
  }

  /// Materializes one column as a flat vector (used at index build time).
  std::vector<Value> DecodeColumn(size_t dim) const {
    return columns_[dim].Decode();
  }

  /// Minimum/maximum value in a dimension (precomputed at construction).
  Value min_value(size_t dim) const { return min_[dim]; }
  Value max_value(size_t dim) const { return max_[dim]; }

  /// Returns a table of the rows `rows`, in that order: new row i is old
  /// row rows[i] (every id < num_rows(); ids may repeat or be left out).
  /// The names are kept. Each
  /// source column is decoded once into a reused buffer, gathered into a
  /// second one and packed from it block by block.
  Table Gather(std::span<const RowId> rows) const;

  /// Gather's permutation case: new row i is old row perm[i]. `perm` must
  /// be a permutation of [0, num_rows).
  Table Reorder(const std::vector<RowId>& perm) const;

  /// Total bytes across encoded columns.
  size_t MemoryUsageBytes() const;

  /// Bytes the table would occupy as raw uncompressed 64-bit values.
  size_t UncompressedBytes() const {
    return num_rows_ * num_dims() * sizeof(Value);
  }

  /// Appends the table (names + encoded column pages) to `w`. Bit-exact
  /// round-trip through ReadFrom: storage order, packed words and zone maps
  /// are preserved, never re-encoded.
  void AppendTo(ByteWriter* w) const;

  /// Parses AppendTo output. Truncated/corrupt input returns
  /// InvalidArgument.
  static StatusOr<Table> ReadFrom(ByteReader* r);

 private:
  /// Appends `column` with its min/max, the fold of its block zone maps
  /// (0 and 0 for an empty column). Every constructor goes through here.
  void AddColumn(Column column);

  size_t num_rows_ = 0;
  std::vector<Column> columns_;
  std::vector<std::string> names_;
  std::vector<Value> min_;
  std::vector<Value> max_;
};

}  // namespace flood

#endif  // FLOOD_STORAGE_TABLE_H_
