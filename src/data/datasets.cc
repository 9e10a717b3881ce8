#include "data/datasets.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "data/distributions.h"

namespace flood {

namespace {

Table TableFrom(std::vector<std::vector<Value>> cols,
                std::vector<std::string> names) {
  StatusOr<Table> t = Table::FromColumns(std::move(cols), std::move(names));
  FLOOD_CHECK(t.ok());
  return std::move(t).value();
}

AggSpec Count() { return AggSpec{AggSpec::Kind::kCount, 0}; }
AggSpec Sum(size_t dim) { return AggSpec{AggSpec::Kind::kSum, dim}; }

}  // namespace

BenchDataset MakeSalesDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  // order_id: dense near-sequential key.
  auto order_id = SequentialColumn(n, 1'000'000, 3, 1, rng);
  // customer_id: mild skew (regular customers order more).
  auto customer_id = ZipfColumn(n, std::max<size_t>(n / 50, 100), 0.6, rng);
  // product_id: catalog of 10k products, mild popularity skew.
  auto product_id = ZipfColumn(n, 10'000, 0.5, rng);
  // quantity: uniform 1..100.
  auto quantity = UniformColumn(n, 1, 100, rng);
  // unit_price in cents: near-uniform band (anonymized transform in paper).
  auto unit_price = UniformColumn(n, 99, 99'999, rng);
  // date: 4 years of day-granularity timestamps, uniform.
  auto date = UniformColumn(n, 0, 4 * 365, rng);

  BenchDataset ds;
  ds.name = "sales";
  ds.table = TableFrom(
      {std::move(order_id), std::move(customer_id), std::move(product_id),
       std::move(quantity), std::move(unit_price), std::move(date)},
      {"order_id", "customer_id", "product_id", "quantity", "unit_price",
       "date"});
  ds.key_dims = {0, 1};
  // Analyst report mix: date-bounded reports dominate.
  ds.olap_specs = {
      {{5}, {}, 3.0, Sum(4)},          // revenue over a date range
      {{5}, {2}, 2.0, Count()},        // product activity in a date range
      {{5, 3}, {}, 2.0, Sum(4)},       // bulk orders over time
      {{4, 3}, {}, 1.0, Count()},      // price/quantity band analysis
      {{5, 1}, {}, 1.0, Count()},      // customer cohort over time
      {{5, 4, 3}, {}, 0.5, Sum(4)},    // detailed slice
  };
  return ds;
}

BenchDataset MakeOsmDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  auto id = SequentialColumn(n, 100'000'000, 7, 3, rng);
  // Edit timestamps skew heavily toward the present.
  auto timestamp = RecencySkewedColumn(n, 1'104'537'600, 1'567'296'000, 3.5,
                                       rng);
  // Lat/lon in micro-degrees, clustered around ~40 metro areas of the US
  // Northeast bounding box.
  auto lat = ClusteredColumn(n, 40, 38'000'000, 47'500'000, 350'000.0, rng);
  auto lon = ClusteredColumn(n, 40, -80'500'000, -66'900'000, 450'000.0, rng);
  // Record type: node/way/relation/changeset/note with strong skew.
  auto record_type = ZipfColumn(n, 5, 1.6, rng);
  // Landmark category: ~100 tags, Zipf-popular.
  auto category = ZipfColumn(n, 100, 1.1, rng);

  BenchDataset ds;
  ds.name = "osm";
  ds.table = TableFrom(
      {std::move(id), std::move(timestamp), std::move(lat), std::move(lon),
       std::move(record_type), std::move(category)},
      {"id", "timestamp", "lat", "lon", "record_type", "category"});
  ds.key_dims = {0, 1};
  // "How many nodes were added in an interval?", "How many buildings in a
  // lat-lon rectangle?" — 1 to 3 filtered dimensions (§7.3).
  ds.olap_specs = {
      {{1}, {4}, 2.5, Count()},         // records of a type over time
      {{2, 3}, {}, 2.5, Count()},       // objects in a lat-lon rectangle
      {{2, 3}, {5}, 1.5, Count()},      // landmarks of a category in a rect
      {{1, 2, 3}, {}, 1.0, Count()},    // spatio-temporal box
      {{1}, {}, 1.0, Count()},          // pure time interval
  };
  return ds;
}

BenchDataset MakePerfmonDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  auto time = UniformColumn(n, 0, 365 * 24 * 3600, rng);
  auto machine_id = ZipfColumn(n, 2000, 1.05, rng);
  // CPU %: bimodal — mostly idle with a busy mode.
  auto cpu = BimodalColumn(n, 4.0, 3.0, 78.0, 14.0, 0.82, 0, 100, rng);
  // Memory MB: lognormal around ~2 GiB.
  auto mem = LognormalColumn(n, 7.6, 0.5, 1.0, rng);
  // Swap MB: extremely skewed — most machines swap ~nothing.
  auto swap = LognormalColumn(n, 0.5, 2.2, 1.0, rng);
  // Load average x100: heavy tail.
  auto load = LognormalColumn(n, 4.2, 0.9, 1.0, rng);

  BenchDataset ds;
  ds.name = "perfmon";
  ds.table = TableFrom(
      {std::move(time), std::move(machine_id), std::move(cpu),
       std::move(mem), std::move(swap), std::move(load)},
      {"time", "machine_id", "cpu", "mem", "swap", "load_avg"});
  ds.key_dims = {1, 0};
  ds.olap_specs = {
      {{0}, {1}, 2.5, Count()},        // one machine's history
      {{0, 2}, {}, 2.0, Count()},      // high-CPU intervals
      {{2, 3}, {}, 1.5, Count()},      // resource pressure band
      {{0, 5}, {}, 1.0, Count()},      // load spikes over time
      {{4}, {1}, 1.0, Count()},        // swap usage for a machine
      {{0, 2, 3}, {}, 0.5, Count()},   // detailed slice
  };
  return ds;
}

BenchDataset MakeTpchDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  // Dates in days since 1992-01-01; orders span ~7 years (dbgen shape).
  auto shipdate = UniformColumn(n, 0, 2526, rng);
  auto receiptdate = OffsetColumn(shipdate, 1, 30, rng);
  auto quantity = UniformColumn(n, 1, 50, rng);
  auto discount = UniformColumn(n, 0, 10, rng);
  // orderkey: sparse dense-ish key domain, uniform draw.
  auto orderkey = UniformColumn(n, 1, static_cast<Value>(n) * 4, rng);
  auto suppkey = UniformColumn(n, 1, 100'000, rng);
  // extendedprice in cents: quantity * unit price-ish.
  std::vector<Value> extendedprice(n);
  for (size_t i = 0; i < n; ++i) {
    extendedprice[i] =
        quantity[i] * rng.UniformInt(90'000, 105'000) / 100;
  }

  BenchDataset ds;
  ds.name = "tpch";
  ds.table = TableFrom(
      {std::move(shipdate), std::move(receiptdate), std::move(quantity),
       std::move(discount), std::move(orderkey), std::move(suppkey),
       std::move(extendedprice)},
      {"shipdate", "receiptdate", "quantity", "discount", "orderkey",
       "suppkey", "extendedprice"});
  ds.key_dims = {4, 5};
  // Filters "commonly found in the TPC-H query workload" (§7.3).
  ds.olap_specs = {
      {{0, 3, 2}, {}, 2.5, Sum(6)},    // Q6-style revenue query
      {{0}, {}, 2.0, Sum(6)},          // shipped-in-interval revenue
      {{0, 1}, {}, 1.5, Count()},      // ship/receipt date window
      {{4}, {}, 1.0, Count()},         // orderkey range
      {{0}, {5}, 1.0, Sum(6)},         // supplier activity over time
      {{2, 3}, {}, 0.5, Count()},      // quantity/discount band
  };
  return ds;
}

BenchDataset MakeUniformDataset(size_t n, size_t num_dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> cols;
  std::vector<std::string> names;
  cols.reserve(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    cols.push_back(UniformColumn(n, 0, 1'000'000'000, rng));
    // Appended, not "u" + std::to_string(d): GCC 12 misreads that prepend
    // as an overlapping memcpy (-Wrestrict).
    std::string name = "u";
    name += std::to_string(d);
    names.push_back(std::move(name));
  }
  BenchDataset ds;
  ds.name = "uniform" + std::to_string(num_dims) + "d";
  ds.table = TableFrom(std::move(cols), std::move(names));
  ds.key_dims = {0};
  ds.olap_specs = {{{0, 1 % num_dims}, {}, 1.0, Count()}};
  return ds;
}

Workload MakeWorkload(const BenchDataset& dataset, WorkloadKind kind,
                      size_t num_queries, uint64_t seed,
                      double selectivity_override) {
  const double sel = selectivity_override > 0.0 ? selectivity_override
                                                : dataset.default_selectivity;
  QueryGenerator gen(dataset.table, seed);
  const size_t d = dataset.table.num_dims();

  switch (kind) {
    case WorkloadKind::kOlapSkewed:
      return gen.GenerateWorkload(dataset.olap_specs, num_queries, sel);

    case WorkloadKind::kOlapUniform: {
      std::vector<QueryTypeSpec> specs = dataset.olap_specs;
      for (auto& s : specs) s.weight = 1.0;
      return gen.GenerateWorkload(specs, num_queries, sel);
    }

    case WorkloadKind::kOltpSingleKey: {
      QueryTypeSpec spec;
      spec.eq_dims = {dataset.key_dims[0]};
      spec.agg = AggSpec{AggSpec::Kind::kCount, 0};
      return gen.GenerateWorkload({spec}, num_queries, sel);
    }

    case WorkloadKind::kOltpTwoKey: {
      QueryTypeSpec spec;
      spec.eq_dims = {dataset.key_dims[0],
                      dataset.key_dims[std::min<size_t>(
                          1, dataset.key_dims.size() - 1)]};
      spec.agg = AggSpec{AggSpec::Kind::kCount, 0};
      return gen.GenerateWorkload({spec}, num_queries, sel);
    }

    case WorkloadKind::kMixed: {
      std::vector<QueryTypeSpec> specs = dataset.olap_specs;
      double olap_weight = 0.0;
      for (const auto& s : specs) olap_weight += s.weight;
      QueryTypeSpec oltp;
      oltp.eq_dims = {dataset.key_dims[0]};
      oltp.weight = olap_weight;  // 50/50 split.
      oltp.agg = AggSpec{AggSpec::Kind::kCount, 0};
      specs.push_back(oltp);
      return gen.GenerateWorkload(specs, num_queries, sel);
    }

    case WorkloadKind::kSingleType:
      return gen.GenerateWorkload({dataset.olap_specs[0]}, num_queries, sel);

    case WorkloadKind::kFewerDims: {
      // Strict subset: only query types touching the first ceil(d/2) dims.
      const size_t cutoff = (d + 1) / 2;
      std::vector<QueryTypeSpec> specs;
      for (const auto& s : dataset.olap_specs) {
        bool ok = true;
        for (size_t dim : s.range_dims) ok = ok && dim < cutoff;
        for (size_t dim : s.eq_dims) ok = ok && dim < cutoff;
        if (ok) specs.push_back(s);
      }
      if (specs.empty()) {
        QueryTypeSpec s;
        s.range_dims = {0};
        specs.push_back(s);
      }
      return gen.GenerateWorkload(specs, num_queries, sel);
    }

    case WorkloadKind::kManyDims: {
      QueryTypeSpec spec;
      for (size_t dim = 0; dim < d; ++dim) spec.range_dims.push_back(dim);
      spec.agg = AggSpec{AggSpec::Kind::kCount, 0};
      return gen.GenerateWorkload({spec}, num_queries, sel);
    }
  }
  FLOOD_CHECK(false);
  return Workload();
}

Workload MakeRandomWorkload(const BenchDataset& dataset, size_t num_queries,
                            size_t max_query_types, uint64_t seed) {
  Rng rng(seed);
  const size_t d = dataset.table.num_dims();
  const size_t num_types =
      static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(
                                                std::max<size_t>(1, max_query_types))));
  std::vector<QueryTypeSpec> specs;
  specs.reserve(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    QueryTypeSpec spec;
    const size_t num_dims_filtered = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(std::min<size_t>(6, d))));
    std::vector<size_t> dims(d);
    for (size_t i = 0; i < d; ++i) dims[i] = i;
    for (size_t i = 0; i < num_dims_filtered; ++i) {
      const size_t j = i + static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(d - i) - 1));
      std::swap(dims[i], dims[j]);
    }
    for (size_t i = 0; i < num_dims_filtered; ++i) {
      // Key attributes preferentially appear as tighter (equality) filters
      // ("more selective on key attributes").
      const bool is_key =
          std::find(dataset.key_dims.begin(), dataset.key_dims.end(),
                    dims[i]) != dataset.key_dims.end();
      if (is_key && rng.Bernoulli(0.4)) {
        spec.eq_dims.push_back(dims[i]);
      } else {
        spec.range_dims.push_back(dims[i]);
      }
    }
    if (spec.range_dims.empty() && spec.eq_dims.empty()) {
      spec.range_dims.push_back(0);
    }
    spec.weight = rng.Uniform(0.5, 2.0);
    specs.push_back(spec);
  }
  QueryGenerator gen(dataset.table, seed ^ 0x5DEECE66DULL);
  // Randomized selectivity centered on the dataset default.
  const double sel =
      dataset.default_selectivity * std::pow(2.0, rng.Uniform(-1.0, 1.0));
  return gen.GenerateWorkload(specs, num_queries, sel);
}

Workload MakeDimensionSweepWorkload(const BenchDataset& dataset,
                                    size_t num_queries, uint64_t seed) {
  const size_t d = dataset.table.num_dims();
  QueryGenerator gen(dataset.table, seed);
  Rng rng(seed ^ 0xD1ED5EEDULL);
  Workload w;
  for (size_t i = 0; i < num_queries; ++i) {
    const size_t k =
        static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(d)));
    QueryTypeSpec spec;
    for (size_t dim = 0; dim < k; ++dim) spec.range_dims.push_back(dim);
    spec.agg = AggSpec{AggSpec::Kind::kCount, 0};
    w.Add(gen.Generate(spec, dataset.default_selectivity));
  }
  return w;
}

}  // namespace flood
