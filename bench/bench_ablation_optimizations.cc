// Design ablation (§7.1 / §7.5): the paper argues Flood's advantage comes
// from the learned layout, not from the column-store extras. This bench
// disables each §7.1 implementation optimization on the *same learned
// layout*:
//
//   full            exact ranges + run merging + per-cell PLMs (default)
//   no-exact        every scanned point re-checked against the filter
//   no-merge        one scan range per cell (no run coalescing)
//   no-plm          binary-search refinement instead of per-cell models
//   none            all three disabled
//
// Paper shape to check: the gaps between variants are small relative to
// the gap between any variant and the baselines (Fig. 7) — the layout is
// what matters.

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  std::vector<std::string> header{"variant"};
  for (const auto& ds : AllDatasetNames()) header.push_back(ds);
  std::map<std::string, std::vector<std::string>> cells;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(100);
    const auto [train, test] =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 202)
            .Split(0.5, 203);
    const BuildContext ctx{&train};

    auto learned = BuildFlood(ds.table, train);
    FLOOD_CHECK(learned.ok());
    const GridLayout layout = learned->index->layout();

    auto run_variant = [&](const std::string& label, bool exact, bool merge,
                           bool plm) {
      FloodIndex::Options o;
      o.layout = layout;
      o.max_cells = uint64_t{1} << 24;
      o.enable_exact_ranges = exact;
      o.enable_run_merging = merge;
      o.use_cell_models = plm;
      FloodIndex index(o);
      FLOOD_CHECK(index.Build(ds.table, ctx).ok());
      const RunResult r = RunWorkload(index, test);
      cells[label].push_back(FormatMs(r.avg_ms));
      rows.push_back({"Ablation/" + ds_name + "/" + label, r.avg_ms, {}});
    };
    run_variant("full", true, true, true);
    run_variant("no-exact", false, true, true);
    run_variant("no-merge", true, false, true);
    run_variant("no-plm", true, true, false);
    run_variant("none", false, false, false);
  }

  std::vector<std::vector<std::string>> out;
  for (const std::string& label :
       {"full", "no-exact", "no-merge", "no-plm", "none"}) {
    std::vector<std::string> row{label};
    for (const auto& c : cells[label]) row.push_back(c);
    out.push_back(row);
  }
  PrintTable(
      "Design ablation (§7.1): scan-path optimizations on the learned "
      "layout, avg query time (ms)",
      header, out);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
