#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "common/rng.h"

namespace flood {
namespace perfbench {

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds, size_t pool_size,
                                     double write_fraction) {
  FLOOD_CHECK(rate_per_s > 0 && pool_size > 0);
  Rng rng(seed);
  std::vector<Arrival> out;
  std::deque<uint32_t> live;  // Insert ordinals not yet deleted, oldest first.
  uint32_t inserts = 0;
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  while (true) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s * 1e9;
    if (t >= horizon_ns) break;
    Arrival a;
    a.at_ns = static_cast<int64_t>(t);
    if (write_fraction > 0 && rng.Bernoulli(write_fraction)) {
      if (!live.empty() && rng.Bernoulli(kDeleteShare)) {
        a.op = Arrival::Op::kDelete;
        a.arg = live.front();
        live.pop_front();
      } else {
        a.op = Arrival::Op::kInsert;
        a.arg = inserts;
        live.push_back(inserts++);
      }
    } else {
      a.arg = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool_size) - 1));
    }
    out.push_back(a);
  }
  return out;
}

namespace {

/// 1-based nearest rank of percentile p among n >= 1 samples. The epsilon
/// keeps p * n that is integral in exact arithmetic (99.9% of 1000) from
/// rounding up a rank.
size_t Rank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = Rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

std::string DescribeLatency(const std::string& label,
                            const std::vector<double>& samples_ms) {
  char buf[256];
  int len = std::snprintf(buf, sizeof(buf), "%s: p50=%.4f ms (n=%zu)",
                          label.c_str(), NearestRank(samples_ms, 50),
                          samples_ms.size());
  if (SamplesBeyond(samples_ms.size(), 99) >= 10) {
    std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                  ", p99=%.4f ms (%zu samples beyond)",
                  NearestRank(samples_ms, 99),
                  SamplesBeyond(samples_ms.size(), 99));
  } else {
    std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                  ", p99 not reported (fewer than 10 samples beyond)");
  }
  return buf;
}

std::vector<double> LatenciesMs(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

double MedianOverSegments(const std::vector<std::vector<double>>& segments_ms,
                          double p) {
  std::vector<double> per_segment;
  for (const std::vector<double>& ms : segments_ms) {
    per_segment.push_back(NearestRank(ms, p));
  }
  return NearestRank(std::move(per_segment), 50);
}

double RateWithin(const std::vector<Sample>& samples, double seconds) {
  const auto n = std::count_if(samples.begin(), samples.end(), [&](const Sample& s) {
    return s.done_s >= 0 && s.done_s < seconds;
  });
  return static_cast<double>(n) / seconds;
}

Oracle::Oracle(const Table& table) {
  columns_.reserve(table.num_dims());
  for (size_t d = 0; d < table.num_dims(); ++d) {
    columns_.push_back(table.DecodeColumn(d));
  }
}

Answer Oracle::Run(const Query& query) const {
  Answer a;
  if (query.IsEmpty()) return a;
  std::vector<size_t> dims;
  for (size_t d = 0; d < query.num_dims(); ++d) {
    if (query.IsFiltered(d)) dims.push_back(d);
  }
  const bool is_sum = query.agg().kind == AggSpec::Kind::kSum;
  const std::vector<Value>* agg_col =
      is_sum ? &columns_[query.agg().dim] : nullptr;
  uint64_t sum = 0;
  const size_t n = num_rows();
  for (size_t r = 0; r < n; ++r) {
    bool match = true;
    for (size_t d : dims) {
      if (!query.range(d).Contains(columns_[d][r])) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    ++a.count;
    if (is_sum) sum += static_cast<uint64_t>((*agg_col)[r]);
  }
  a.sum = static_cast<int64_t>(sum);
  return a;
}

bool SameAnswer(const Query& query, const Answer& want, const Answer& got) {
  return got.count == want.count &&
         (query.agg().kind != AggSpec::Kind::kSum || got.sum == want.sum);
}

void AddRow(const Query& query, const std::vector<Value>& row, Answer* a) {
  if (query.IsEmpty()) return;
  for (size_t d = 0; d < query.num_dims(); ++d) {
    if (!query.range(d).Contains(row[d])) return;
  }
  ++a->count;
  if (query.agg().kind == AggSpec::Kind::kSum) {
    a->sum = static_cast<int64_t>(static_cast<uint64_t>(a->sum) +
                                  static_cast<uint64_t>(row[query.agg().dim]));
  }
}

double UnattributedFraction(double wire_mean_us,
                            const std::vector<double>& layer_self_us) {
  if (wire_mean_us <= 0) return 1.0;
  double sum = 0;
  for (double v : layer_self_us) sum += v;
  return 1.0 - sum / wire_mean_us;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    // %.17g round-trips a double; non-finite values are not valid JSON.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
}  // namespace flood
