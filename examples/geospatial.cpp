// Geospatial analytics on OpenStreetMap-like data: answering the paper's
// §7.3 questions ("how many nodes were added in a time interval?", "how
// many landmarks of a category in a lat-lon rectangle?"), with dictionary
// encoding for the category strings, and a rectangle drill-down that
// shrinks a lat-lon box until few enough rows match to collect. Every
// query runs through the flood::Database facade.
//
//   $ ./examples/geospatial

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/database.h"
#include "data/datasets.h"

int main() {
  using namespace flood;

  std::printf("generating OSM-like dataset...\n");
  const BenchDataset osm = MakeOsmDataset(1'000'000, 13);
  // Dims: 0 id, 1 timestamp, 2 lat, 3 lon, 4 record_type, 5 category.

  // The simulator emits integer category codes; a real ingest pipeline
  // dictionary-encodes tag strings (§7.1) into dense codes, in first-seen
  // order here. Demonstrate the mapping for the query below ("school"
  // happens to be category code 17 in our vocabulary).
  std::vector<std::string> category_names;
  std::unordered_map<std::string, Value> category_codes;
  for (int code = 0; code < 100; ++code) {
    category_names.push_back("category_" + std::to_string(code));
    category_codes.emplace(category_names.back(), code);
  }
  const Value school = category_codes.at("category_17");

  const auto [train, test] =
      MakeWorkload(osm, WorkloadKind::kOlapSkewed, 160, 14).Split(0.5, 15);
  DatabaseOptions options;
  options.index_name = "flood";
  options.training_workload = train;
  auto db = Database::Open(osm.table, std::move(options));
  FLOOD_CHECK(db.ok());
  std::printf("%s\n\n", db->Describe().c_str());

  // "How many records were added in the last 90 days of the data?"
  {
    const Value t_end = osm.table.max_value(1);
    Query q = QueryBuilder(6)
                  .Range(1, t_end - 90 * 86'400, t_end)
                  .Count()
                  .Build();
    const QueryResult r = db->Run(q);
    std::printf("records added in the last 90 days: %llu (%.3f ms)\n",
                static_cast<unsigned long long>(r.count),
                static_cast<double>(r.stats.total_ns) / 1e6);
  }

  // "How many 'school' landmarks in a Boston-sized lat-lon rectangle?"
  {
    Query q = QueryBuilder(6)
                  .Range(2, 42'200'000, 42'500'000)    // lat (micro-deg)
                  .Range(3, -71'200'000, -70'900'000)  // lon
                  .Equals(5, school)
                  .Count()
                  .Build();
    const QueryResult r = db->Run(q);
    std::printf("'%s' landmarks in the rectangle: %llu (%.3f ms, scanned "
                "%llu of %zu rows)\n",
                category_names[static_cast<size_t>(school)].c_str(),
                static_cast<unsigned long long>(r.count),
                static_cast<double>(r.stats.total_ns) / 1e6,
                static_cast<unsigned long long>(r.stats.points_scanned),
                osm.table.num_rows());
  }

  // A nearest-landmark-style drill-down: shrink the rectangle until the
  // count is small enough to materialize row ids.
  {
    Value half_width = 400'000;
    const Value lat0 = 40'750'000;
    const Value lon0 = -73'990'000;
    while (half_width > 1000) {
      Query q = QueryBuilder(6)
                    .Range(2, lat0 - half_width, lat0 + half_width)
                    .Range(3, lon0 - half_width, lon0 + half_width)
                    .Build();
      if (db->Run(q).count <= 64) {
        const QueryResult rows = db->Collect(q);
        std::printf("drill-down: %zu rows within +/-%lld micro-deg; first "
                    "row id %llu\n",
                    rows.rows.size(), static_cast<long long>(half_width),
                    rows.rows.empty()
                        ? 0ULL
                        : static_cast<unsigned long long>(rows.rows[0]));
        break;
      }
      half_width /= 2;
    }
  }
  return 0;
}
