#ifndef FLOOD_PERFBENCH_HARNESS_H_
#define FLOOD_PERFBENCH_HARNESS_H_

// Measurement helpers of the repository benchmark that do not touch the
// wire: the seeded arrival schedule, exact percentiles, the brute-force
// oracle, the traced sum check and the result line.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"
#include "storage/table.h"

namespace flood {
namespace perfbench {

/// Monotonic clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One scheduled request of the open-loop phase: when it is due (offset
/// from the phase start), what it does and its argument (a query-pool
/// index for reads, a write index for writes).
struct Arrival {
  enum class Op : uint8_t { kRead, kInsert, kDelete };
  int64_t at_ns = 0;
  Op op = Op::kRead;
  uint32_t arg = 0;

  bool operator==(const Arrival&) const = default;
};

/// Seeded Poisson arrivals at `rate_per_s` over [0, seconds): exponential
/// gaps, each a read of a uniformly drawn pool query, except that with
/// probability `write_fraction` it is a write. A write inserts a fresh row
/// (arg = insert ordinal) or, with probability kDeleteShare while some
/// inserted row is live, deletes the oldest live one (arg = the ordinal of
/// the insert it removes). Same inputs, same schedule.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds, size_t pool_size,
                                     double write_fraction);

/// Share of writes that are deletes (when a live inserted row exists).
inline constexpr double kDeleteShare = 0.3;

/// Nearest-rank percentile (p in (0, 100]) of raw samples: the value at
/// rank ceil(p/100 * n) of the sorted samples. 0 for no samples.
double NearestRank(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank position of `p` among n.
size_t SamplesBeyond(size_t n, double p);

/// "p50=1.234 ms (n=5000)"-style rendering; the p99 clause is printed only
/// when at least ten samples lie beyond it.
std::string DescribeLatency(const std::string& label,
                            const std::vector<double>& samples_ms);

/// One answered request.
struct Sample {
  double done_s = 0;  ///< Reply time, in seconds from the phase's start.
  double ms = 0;      ///< Latency from the intended send time.
};

std::vector<double> LatenciesMs(const std::vector<Sample>& samples);

/// The median over segments of each segment's nearest-rank percentile p
/// (0 when there are no segments).
double MedianOverSegments(const std::vector<std::vector<double>>& segments_ms,
                          double p);

/// Replies per second that landed within [0, seconds).
double RateWithin(const std::vector<Sample>& samples, double seconds);

/// An aggregate answer as the wire reports it.
struct Answer {
  uint64_t count = 0;
  int64_t sum = 0;
};

/// Brute-force answers over the generated rows, independent of every
/// index: a row-by-row predicate check on the decoded columns.
class Oracle {
 public:
  explicit Oracle(const Table& table);

  /// The answer of `query` over the base rows.
  Answer Run(const Query& query) const;

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

 private:
  std::vector<std::vector<Value>> columns_;
};

/// Whether `got` answers `query` as `want` does: the count always, the
/// sum for SUM queries.
bool SameAnswer(const Query& query, const Answer& want, const Answer& got);

/// Folds one full row into an answer if it satisfies `query` (SUM wraps,
/// like the index's).
void AddRow(const Query& query, const std::vector<Value>& row, Answer* a);

/// The traced sum check: 1 - (sum of layer self times) / wire mean. Near
/// 0 when the layers account for the client-observed time.
double UnattributedFraction(double wire_mean_us,
                            const std::vector<double>& layer_self_us);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The final result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}, numbers at full precision.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
}  // namespace flood

#endif  // FLOOD_PERFBENCH_HARNESS_H_
