// Self-tests of the benchmark's own code: the schedule, the percentile,
// the oracle check over the wire, and the traced sum check. Run from a
// writable directory (the endpoint's socket is created there); exits 0
// when every check holds.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "perfbench/harness.h"
#include "perfbench/wire_load.h"
#include "perfbench/workloads.h"

namespace flood {
namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TestSchedule() {
  const auto a = PoissonSchedule(42, 1000, 2.0, 100, 0.1);
  const auto b = PoissonSchedule(42, 1000, 2.0, 100, 0.1);
  const auto c = PoissonSchedule(43, 1000, 2.0, 100, 0.1);
  Expect(a == b, "the schedule is identical for the same seed");
  Expect(a != c, "another seed gives another schedule");
  // 2000 expected arrivals; 5 standard deviations is about 224.
  Expect(std::abs(static_cast<double>(a.size()) - 2000) < 224,
         "the arrival count matches the rate");
  bool sorted = std::is_sorted(a.begin(), a.end(),
                               [](const Arrival& x, const Arrival& y) {
                                 return x.at_ns < y.at_ns;
                               });
  Expect(sorted && a.back().at_ns < 2'000'000'000, "arrivals are in order");
}

void TestPercentile() {
  Rng rng(7);
  bool ok = true;
  for (size_t n : {1, 2, 10, 99, 100, 101, 1000, 4321}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Uniform(0, 100);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      // Nearest rank: the smallest value with at least p% of the samples
      // at or below it, counted in integers (p given in tenths).
      const size_t tenths = static_cast<size_t>(std::lround(p * 10));
      size_t k = 0;
      while ((k + 1) * 1000 < tenths * n) ++k;
      ok = ok && NearestRank(v, p) == sorted[k];
    }
  }
  Expect(ok, "the percentile matches a sort");
  Expect(SamplesBeyond(1000, 99) == 10 && SamplesBeyond(999, 99) == 9,
         "samples beyond p99 are counted by rank");
  std::vector<std::vector<double>> segments(5);
  for (auto& seg : segments) {
    for (int i = 0; i < 1000; ++i) seg.push_back(rng.Uniform(0, 1));
  }
  segments[1].assign(1000, 1000.0);  // A stall: one slow segment.
  Expect(MedianOverSegments(segments, 99) < 1,
         "one slow segment does not move the segment median");
}

/// A tiny read-only endpoint shared by the wire tests.
struct Tiny {
  WorkloadSpec spec;
  Inputs in;
  std::unique_ptr<Endpoint> ep;
};

Tiny MakeTiny() {
  Tiny t;
  t.spec = *FindWorkload("point-sales");
  t.spec.rows = 5'000;
  t.spec.pool = 50;
  t.in = MakeInputs(t.spec, 11);
  StatusOr<std::unique_ptr<Endpoint>> ep =
      Endpoint::Open(t.spec, t.in.data.table, t.in.train, "selftest");
  FLOOD_CHECK(ep.ok());
  t.ep = std::move(*ep);
  return t;
}

void TestOracle(Tiny* t) {
  const std::vector<Query>& pool = t->in.pool;
  const Oracle oracle(t->in.data.table);
  std::vector<Answer> truth;
  for (const Query& q : pool) truth.push_back(oracle.Run(q));
  truth[3].count += 1;  // The injected wrong answer.

  Traffic traffic;
  traffic.pool = &pool;
  traffic.check_read = [&](const Request& r, const serve::WireQueryResult& w) {
    return SameAnswer(pool[r.arg], truth[r.arg], Answer{w.count, w.sum});
  };
  StatusOr<std::unique_ptr<WireLoad>> load =
      WireLoad::Connect(t->ep->socket_path(), 2, traffic);
  FLOOD_CHECK(load.ok());
  std::vector<Arrival> schedule;
  for (uint32_t i = 0; i < pool.size(); ++i) {
    schedule.push_back({static_cast<int64_t>(i) * 100'000, Arrival::Op::kRead, i});
  }
  const PhaseStats s = (*load)->OpenLoop(schedule);
  Expect(s.attempted == pool.size(), "every scheduled read was attempted");
  Expect(s.wrong == 1 && s.failed == 1,
         "the oracle flags exactly the injected wrong count");
  Expect(s.reads.size() == pool.size() - 1,
         "the other replies are timed and accepted");
}

void TestTraceSum(Tiny* t) {
  StatusOr<serve::Client> client =
      serve::Client::Connect("unix:" + t->ep->socket_path());
  FLOOD_CHECK(client.ok());
  StatusOr<LayerTrace> trace = TraceLayers(t->ep.get(), &*client, t->in.pool, 3);
  Expect(trace.ok(), "the traced pass runs");
  if (!trace.ok()) return;
  std::printf("      wire %.2f us, unattributed %.4f\n", trace->wire_us,
              trace->unattributed);
  Expect(std::abs(trace->unattributed) <= 0.1,
         "layer self times add up to the wire mean within 10%");
}

}  // namespace
}  // namespace perfbench
}  // namespace flood

int main() {
  using namespace flood::perfbench;
  TestSchedule();
  TestPercentile();
  Tiny tiny = MakeTiny();
  TestOracle(&tiny);
  TestTraceSum(&tiny);
  tiny.ep.reset();
  std::printf("%d self-test failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
