#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

// Shared pieces of the streamq benchmark program: run arguments, clocks and
// process accounting, the percentile rule, the metric table and result
// line, time-shifted lap replay of a bounded input block, and the output
// checks every workload runs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "core/executor.h"
#include "stream/event.h"
#include "stream/generator.h"
#include "window/window.h"

namespace perfbench {

using streamq::DurationUs;
using streamq::Event;
using streamq::TimestampUs;
using streamq::WindowResult;

/// Command line of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Events per ingest call on every workload.
inline constexpr size_t kBatchEvents = 512;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

// ---------------------------------------------------------------- clocks

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// Process CPU time (user + system, all threads) in seconds.
double CpuSeconds();

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// ---------------------------------------------------- percentile rule

/// A percentile is reported only where at least this many samples lie
/// beyond it.
inline constexpr size_t kTailSamples = 10;

/// The highest quantile not above `wanted` that leaves at least
/// kTailSamples of `n` samples beyond it (nearest-rank), or 0.5 when even
/// the median does not.
double SupportedQuantile(size_t n, double wanted);

/// Nearest-rank quantile of ascending `sorted` (non-empty).
double NearestRank(const std::vector<double>& sorted, double q);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Median and supported tail of a sample.
struct Distribution {
  size_t n = 0;
  double p50 = 0.0;
  /// The quantile actually reported as the tail (SupportedQuantile).
  double tail_q = 0.0;
  double tail = 0.0;
};
Distribution Summarize(std::vector<double> samples, double wanted_tail);

// ---------------------------------------------------- metrics and result

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the system sees; printed by untraced runs.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Single-layer metrics; printed by traced runs.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Failure accounting plus metric values of one run.
class RunResult {
 public:
  /// Counts one attempted operation or check; a false `ok` counts as a
  /// failure and is reported on stderr with `what`.
  void Check(bool ok, const std::string& what);

  /// Counts `attempted` operations of one kind, `failed` of them failed.
  void Count(int64_t attempted, int64_t failed, const std::string& what);

  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  const std::map<std::string, double>& values() const { return values_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Renders the final JSON line over `specs`. Fails (with `*error`) when a
  /// metric of `specs` was never set or is not finite.
  bool Render(const std::vector<MetricSpec>& specs, std::string* line,
              std::string* error) const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// Sets every metric measured in `reps` to its median over them.
void SetMedianOf(const std::vector<RunResult>& reps, RunResult* out);

/// Checks that `name` reads the same in every one of `reps` (counts that
/// must repeat exactly across runs of one seed).
void CheckRepeats(const std::vector<RunResult>& reps, const std::string& name,
                  RunResult* out);

/// One measured repetition: its timed events, wall and process CPU time,
/// and one wall-time sample per ingest call.
struct Repetition {
  double events = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> ingest_us;
};

/// What every workload measures end to end, before it becomes metrics.
struct EndToEnd {
  std::vector<Repetition> reps;
  std::vector<double> result_latency_ms;
  double realized_quality = 0.0;
  double quality_target = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> setup_s;

  /// Timed events per wall second over every repetition.
  double Throughput() const;
  /// Process CPU seconds per wall second over every repetition.
  double CpuPerWall() const;
  /// The lower quartile over repetitions of each repetition's p99 ingest
  /// time. One repetition hit by a burst of host preemption holds over 1%
  /// of the pooled samples and would set a pooled p99 on its own, and such
  /// bursts hit up to half the repetitions of a run; preemption only adds
  /// latency, while a slower program raises every repetition's tail.
  double IngestTail() const;
  size_t ingest_samples() const;
};

/// Sets the end-to-end metrics except success_rate (set last, once every
/// check has run) and prints sample counts and the tail quantiles used.
void SetEndToEndMetrics(const EndToEnd& e2e, RunResult* result);

/// One `key=value` line on stdout, before the result line.
void PrintInfo(const std::string& key, const std::string& value);

/// Text form of a workload configuration, for the fingerprint.
std::string DescribeWorkload(const streamq::WorkloadConfig& config);

// ------------------------------------------------------------ lap replay

/// Event-time offset between laps: a multiple of the window slide (so the
/// window grid maps onto itself) that leaves no window holding tuples of
/// two laps and keeps arrival time monotone across the lap boundary.
DurationUs LapShift(const std::vector<Event>& block,
                    const streamq::WindowSpec& window);

/// Replays a bounded, arrival-ordered block `laps` times, each lap shifted
/// forward by `shift` in event and arrival time (ids shifted by the block
/// size), so a long stream costs one block of memory. Batches never
/// straddle a lap boundary; lap 0 is the warmup lap.
class LapReplay {
 public:
  LapReplay(const std::vector<Event>* block, DurationUs shift, int laps);

  /// Appends the next up to `max_events` events to `*out`; returns how
  /// many (0 at the end of the last lap).
  size_t Next(size_t max_events, std::vector<Event>* out);

  /// Lap of the next event (== laps() once exhausted).
  int next_lap() const { return lap_; }
  int laps() const { return laps_; }
  const std::vector<Event>& block() const { return *block_; }
  DurationUs shift() const { return shift_; }

  /// Events in laps 1.., the timed part of the stream.
  int64_t timed_events() const {
    return static_cast<int64_t>(block_->size()) * (laps_ - 1);
  }

  void Reset() {
    lap_ = 0;
    pos_ = 0;
  }

 private:
  const std::vector<Event>* block_;
  DurationUs shift_;
  int laps_;
  int lap_ = 0;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------- checks

/// in == out + late + shed.
bool IdentityHolds(const streamq::DisorderHandlerStats& stats);

/// First emissions reduced to what must agree between two executions of
/// one job: bounds, key, value bits and tuple count, sorted.
std::vector<WindowResult> CanonicalFirstEmissions(
    const std::vector<WindowResult>& results);

/// Stream-time result latencies (emit time - window end) of first
/// emissions, in milliseconds. Windows whose first emission came after the
/// last arrival of their lap are left out: the next lap's arrivals (or the
/// end-of-stream flush) closed them, which is an artifact of the replay.
std::vector<double> ResultLatenciesMs(const std::vector<WindowResult>& results,
                                      const LapReplay& replay,
                                      const streamq::WindowSpec& window);

/// Mean realized quality of `results` against the exact oracle of the
/// replayed stream: every window of every lap is scored on its first
/// emission (value quality, missed windows count as 0), using one oracle
/// over the block and the lap shift to map each result onto it.
double RealizedQuality(const std::vector<WindowResult>& results,
                       const LapReplay& replay,
                       const streamq::WindowSpec& window,
                       const streamq::AggregateSpec& aggregate);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
