#include "core/cell_table.h"

namespace flood {

CellTable::CellTable(uint64_t num_cells,
                     std::span<const uint32_t> cells_in_storage_order)
    : occupied_(num_cells), starts_() {
  const size_t n = cells_in_storage_order.size();
  for (size_t r = 0; r < n; ++r) {
    const uint32_t c = cells_in_storage_order[r];
    if (r > 0 && c == cells_in_storage_order[r - 1]) continue;
    FLOOD_DCHECK(r == 0 || c > cells_in_storage_order[r - 1]);
    occupied_.Set(c);
    starts_.push_back(static_cast<uint32_t>(r));
  }
  starts_.push_back(static_cast<uint32_t>(n));
  starts_.shrink_to_fit();
  occupied_.Finish();
}

}  // namespace flood
