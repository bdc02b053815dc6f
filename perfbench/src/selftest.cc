// Self-tests of the benchmark's own arithmetic: the percentile rule, span
// self time on nested spans, the result line naming every metric with its
// unit, and the lap replay. Exits non-zero on the first failed expectation.
//
//   perfbench_selftest

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "spans.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

size_t Beyond(const std::vector<double>& v, double x) {
  size_t n = 0;
  for (double e : v) n += e > x ? 1 : 0;
  return n;
}

void TestPercentileRule() {
  Expect(SupportedQuantile(1000, 0.99) == 0.99, "n=1000 supports p99");
  Expect(std::fabs(SupportedQuantile(500, 0.99) - 0.98) < 1e-12,
         "n=500 falls back to p98");
  Expect(SupportedQuantile(100000, 0.99) == 0.99, "p99 is the ceiling");
  Expect(SupportedQuantile(10, 0.99) == 0.5, "n=10 supports only the median");
  for (int n : {20, 137, 500, 999, 1000, 1001, 5000}) {
    const std::vector<double> v = OneTo(n);
    const Distribution d = Summarize(v, 0.99);
    Expect(Beyond(v, d.tail) >= kTailSamples,
           "at least 10 samples beyond the tail, n=" + std::to_string(n));
    // No higher sample would still leave 10 beyond it (unless p99 capped).
    Expect(d.tail_q == 0.99 || Beyond(v, d.tail + 1) < kTailSamples,
           "tail is the highest supported, n=" + std::to_string(n));
    Expect(d.p50 == std::ceil(n / 2.0), "median rank, n=" + std::to_string(n));
  }
  Expect(NearestRank(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of odd and even samples");
}

void TestSelfTime() {
  SpanRecorder r;
  const int root = r.Name("root");
  const int a = r.Name("a");
  const int leaf = r.Name("leaf", true);
  const int b = r.Name("b");
  r.Begin(root, -1, 0);
  r.Begin(a, 0, 10);
  r.Begin(leaf, 0, 20);
  r.End(30);
  r.End(40);
  r.Begin(b, 1, 50);
  r.Begin(leaf, 1, 55);
  r.End(60);
  r.End(90);
  r.End(100);
  Expect(r.open_spans() == 0, "every span closed");
  Expect(r.totals("root").total_ns == 100, "root duration");
  Expect(r.totals("root").self_ns == 30, "root self = 100 - 30 - 40");
  Expect(r.totals("a").self_ns == 20, "a self = 30 - 10");
  Expect(r.totals("b").self_ns == 35, "b self = 40 - 5");
  Expect(r.totals("leaf").count == 2 && r.totals("leaf").self_ns == 15,
         "leaf self = 10 + 5 over two spans");
  Expect(r.totals("leaf").self_samples == std::vector<double>({10.0, 5.0}),
         "leaf keeps per-span self samples");
  int64_t self_sum = 0;
  for (const char* name : {"root", "a", "leaf", "b"}) {
    self_sum += r.totals(name).self_ns;
  }
  Expect(self_sum == 100, "self times add up to the root duration");
  Expect(r.totals("never").count == 0, "unknown name reads as zero");

  SpanRecorder other;
  other.Begin(other.Name("a"), 0, 0);
  other.End(7);
  r.MergeTotals(other);
  Expect(r.totals("a").count == 2 && r.totals("a").self_ns == 27,
         "merged totals add per name");

  SpanRecorder bounded(2);
  bounded.Begin(bounded.Name("x"), 0, 0);
  bounded.Begin(bounded.Name("x"), 0, 1);
  bounded.Begin(bounded.Name("x"), 0, 2);
  bounded.End(3);
  bounded.End(4);
  bounded.End(5);
  Expect(bounded.totals("x").count == 3 && bounded.totals("x").self_ns == 5,
         "totals stay exact beyond the stored-span bound");
}

bool NameOk(const std::string& s, size_t max_len) {
  if (s.empty() || s.size() > max_len) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return std::isalnum(static_cast<unsigned char>(s[0])) != 0;
}

bool UnitOk(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void TestResultLine() {
  for (const std::vector<MetricSpec>* specs :
       {&EndToEndMetrics(), &PerLayerMetrics()}) {
    std::set<std::string> seen;
    RunResult result;
    for (const MetricSpec& spec : *specs) {
      Expect(NameOk(spec.name, 64), std::string("metric name ") + spec.name);
      Expect(UnitOk(spec.unit), std::string("unit of ") + spec.name);
      Expect(seen.insert(spec.name).second,
             std::string("metric named once: ") + spec.name);
      result.Set(spec.name, 1.25);
    }
    result.Check(true, "an operation");
    std::string line;
    std::string error;
    Expect(result.Render(*specs, &line, &error), "render: " + error);
    for (const MetricSpec& spec : *specs) {
      const std::string entry = std::string("\"") + spec.name +
                                "\": {\"value\": 1.25, \"unit\": \"" +
                                spec.unit + "\"}";
      Expect(line.find(entry) != std::string::npos,
             std::string("line names ") + spec.name + " with its unit");
    }
    Expect(line.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                      "\"metrics\": {",
                      0) == 0,
           "line starts with the result keys");

    RunResult missing = result;
    missing.Set(specs->front().name, std::nan(""));
    Expect(!missing.Render(*specs, &line, &error), "NaN metric is refused");
    RunResult partial;
    Expect(!partial.Render(*specs, &line, &error), "missing metric refused");
  }
  RunResult failing;
  failing.Check(false, "a deliberately failed check");
  failing.Count(10, 2, "ten operations, two failed");
  Expect(failing.attempted() == 11 && failing.failed() == 3,
         "failures count against attempts");
}

void TestLapReplay() {
  std::vector<Event> block;
  for (int i = 0; i < 1000; ++i) {
    Event e;
    e.id = i;
    e.event_time = i * 1000;
    e.arrival_time = e.event_time + (i % 7) * 3000;
    block.push_back(e);
  }
  const streamq::WindowSpec window =
      streamq::WindowSpec::Sliding(streamq::Millis(50), streamq::Millis(10));
  const DurationUs shift = LapShift(block, window);
  Expect(shift % window.slide == 0, "lap shift is a multiple of the slide");
  Expect(shift >= 999000 + 18000 + window.size,
         "no window spans two laps and arrivals stay monotone");
  LapReplay replay(&block, shift, 3);
  std::vector<Event> all;
  size_t batches = 0;
  std::vector<Event> batch;
  for (;;) {
    const int lap = replay.next_lap();
    batch.clear();
    if (replay.Next(300, &batch) == 0) break;
    ++batches;
    for (const Event& e : batch) {
      Expect(e.id / 1000 == lap, "batch stays inside one lap");
    }
    all.insert(all.end(), batch.begin(), batch.end());
  }
  Expect(batches == 12, "1000-event laps in 300-event batches: 4 per lap");
  Expect(all.size() == 3000 && replay.timed_events() == 2000,
         "three laps, two timed");
  Expect(all[2500].event_time == block[500].event_time + 2 * shift &&
             all[2500].arrival_time == block[500].arrival_time + 2 * shift,
         "laps are time-shifted copies");
  Expect(all[1000].arrival_time > block.back().arrival_time,
         "arrival time is monotone across laps");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSelfTime();
  perfbench::TestResultLine();
  perfbench::TestLapReplay();
  if (perfbench::failures > 0) {
    std::cerr << perfbench::failures << " self-test expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
