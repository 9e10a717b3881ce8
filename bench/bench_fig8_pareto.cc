// Fig. 8 (§7.4): index size vs average query time — each index swept over
// its tuning knob (page size; for Flood, the PLM error budget delta and the
// cell budget), tracing the size/speed Pareto frontier.
//
// Paper shape to check: Flood sits below-left of every baseline's curve
// (faster at a fraction of the size); the hyperoctree needs 20x+ Flood's
// footprint for comparable time on osm.

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(80);
    const auto [train, test] =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 62).Split(0.5, 63);
    const BuildContext ctx{&train};

    std::vector<std::vector<std::string>> out;
    auto emit = [&](const std::string& name, const std::string& config,
                    size_t bytes, double ms) {
      out.push_back({name, config, FormatBytes(bytes), FormatMs(ms)});
      rows.push_back({"Fig8/" + ds_name + "/" + name + "/" + config,
                      ms,
                      {{"index_bytes", static_cast<double>(bytes)}}});
    };

    for (const std::string& index_name :
         {"Clustered", "RStarTree", "ZOrder", "UBtree", "Hyperoctree",
          "KdTree", "GridFile"}) {
      for (size_t page : {size_t{256}, size_t{1024}, size_t{4096},
                          size_t{16384}}) {
        auto index = BuildBaseline(index_name, ds.table, ctx, page);
        if (!index.ok()) {
          out.push_back({index_name, "page=" + std::to_string(page), "N/A",
                         "N/A"});
          continue;
        }
        const RunResult r = RunWorkload(**index, test);
        emit(index_name, "page=" + std::to_string(page),
             (*index)->IndexSizeBytes(), r.avg_ms);
        // Page size is a no-op for UBtree/Clustered: one point suffices.
        if (index_name == "UBtree" || index_name == "Clustered") break;
      }
    }

    // Flood sweep: learn the layout once, then trade size for speed via
    // the per-cell model budget (delta) — §7.8's knob.
    auto learned = BuildFlood(ds.table, train);
    FLOOD_CHECK(learned.ok());
    for (double delta : {10.0, 50.0, 200.0, 1000.0}) {
      FloodIndex::Options o;
      o.layout = learned->index->layout();
      o.plm_delta = delta;
      o.max_cells = uint64_t{1} << 22;
      FloodIndex index(o);
      FLOOD_CHECK(index.Build(ds.table, ctx).ok());
      const RunResult r = RunWorkload(index, test);
      emit("Flood", "delta=" + Format(delta, 0), index.IndexSizeBytes(),
           r.avg_ms);
    }

    PrintTable("Fig 8 (" + ds_name + "): index size vs avg query time",
               {"index", "config", "size", "avg ms"}, out);
  }
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
