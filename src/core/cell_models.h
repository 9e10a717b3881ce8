#ifndef FLOOD_CORE_CELL_MODELS_H_
#define FLOOD_CORE_CELL_MODELS_H_

#include <cstdint>
#include <vector>

#include "core/cell_table.h"
#include "learned/plm.h"
#include "storage/column.h"

namespace flood {

/// Per-cell CDF models over the sort dimension (§5.2). Each sufficiently
/// large cell owns a PLM predicting positions within the cell, where
/// refinement's bound search starts; small cells start it at their first
/// row (building a model would cost more than it saves). Models are keyed
/// by the cell's occupied ordinal (CellTable) through a has-model
/// RankBitmap, so the container costs 2 bits per occupied cell plus the
/// PLMs themselves; empty grid cells cost nothing.
class CellModels {
 public:
  CellModels() = default;

  /// Builds models for each occupied cell of `sort_values` (in storage
  /// order). `starts` has num_occupied + 1 entries; occupied ordinal o
  /// spans [starts[o], starts[o+1]). Cells smaller than `min_cell_size` get
  /// no model. `delta` is the PLM average-error budget.
  void Build(const std::vector<Value>& sort_values,
             const std::vector<uint32_t>& starts, size_t min_cell_size,
             double delta);

  /// The trained model of occupied ordinal `o`, or nullptr. Its Predict is
  /// a lower-bound estimate of the *cell-relative* rank of the first value
  /// >= v in the cell.
  const Plm* Find(size_t o) const {
    if (o >= has_model_.size() || !has_model_.Test(o)) return nullptr;
    return &plms_[has_model_.Rank(o)];
  }

  size_t num_models() const { return plms_.size(); }
  size_t MemoryUsageBytes() const;

 private:
  RankBitmap has_model_;  // Over occupied ordinals.
  std::vector<Plm> plms_;
};

}  // namespace flood

#endif  // FLOOD_CORE_CELL_MODELS_H_
