#include "core/cell_models.h"

#include "common/macros.h"

namespace flood {

void CellModels::Build(const std::vector<Value>& sort_values,
                       const std::vector<uint32_t>& starts,
                       size_t min_cell_size, double delta) {
  FLOOD_CHECK(!starts.empty());
  const size_t num_occupied = starts.size() - 1;
  has_model_ = RankBitmap(num_occupied);
  plms_.clear();

  std::vector<Value> cell_values;
  for (size_t o = 0; o < num_occupied; ++o) {
    const size_t begin = starts[o];
    const size_t end = starts[o + 1];
    if (end - begin < min_cell_size) continue;
    cell_values.assign(sort_values.begin() + begin,
                       sort_values.begin() + end);
    has_model_.Set(o);
    plms_.push_back(Plm::Train(cell_values, delta));
  }
  has_model_.Finish();
}

size_t CellModels::MemoryUsageBytes() const {
  size_t bytes = has_model_.MemoryUsageBytes();
  for (const auto& plm : plms_) bytes += plm.MemoryUsageBytes();
  return bytes;
}

}  // namespace flood
