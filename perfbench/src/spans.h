#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Span recording for the traced runs. The benchmark never instruments the
// program itself: spans are taken in the benchmark's own code around the
// public calls into each layer (a handler's OnBatch/Flush, the window
// operator's EventSink entry points, an ingest RPC, ...).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/continuous_query.h"
#include "core/pipeline_observer.h"
#include "disorder/disorder_handler.h"
#include "window/window_operator.h"

namespace perfbench {

/// Single-threaded recorder of nested spans.
///
/// Each span has a name, start, end, parent and batch id. Self time — a
/// span's duration minus the time its child spans cover — is folded into
/// per-name totals as each span ends, so the totals are exact however many
/// spans a run makes; the raw spans are kept in memory up to a bound and
/// written out when the run ends.
class SpanRecorder {
 public:
  static constexpr size_t kDefaultMaxStored = size_t{1} << 16;

  explicit SpanRecorder(size_t max_stored = kDefaultMaxStored)
      : max_stored_(max_stored) {}

  /// Registers (or finds) a span name. With `keep_self_samples` every
  /// span's self time is kept, for percentiles.
  int Name(std::string_view name, bool keep_self_samples = false);

  /// Opens a span at `now_ns` as a child of the innermost open span.
  void Begin(int name, int64_t batch, int64_t now_ns);
  /// Closes the innermost open span at `now_ns`.
  void End(int64_t now_ns);

  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    /// Per-span self times (names registered with keep_self_samples).
    std::vector<double> self_samples;
  };

  /// Totals of a name; zero totals for a name never registered.
  const Totals& totals(std::string_view name) const;

  /// Adds `other`'s totals into this recorder (per-thread recorders of one
  /// run). Stored spans are not merged.
  void MergeTotals(const SpanRecorder& other);

  size_t open_spans() const { return stack_.size(); }

  /// Writes the stored spans as CSV (name,batch,parent,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  struct Open {
    int name;
    int64_t batch;
    int64_t start_ns;
    int64_t child_ns;
    int64_t stored;  // Index in spans_, or -1.
  };
  struct Stored {
    int name;
    int64_t parent;
    int64_t batch;
    int64_t start_ns;
    int64_t end_ns;
  };

  size_t max_stored_;
  std::vector<std::string> names_;
  std::vector<bool> keep_samples_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Stored> spans_;
  int64_t spans_dropped_ = 0;
};

/// Span over one scope, on the wall clock; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, int name, int64_t batch)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, batch, NowNs());
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Counts of one hand-assembled pipeline run, read from observer hooks and
/// the stages' own stats.
struct PipelineRun {
  std::vector<WindowResult> results;
  streamq::DisorderHandlerStats handler_stats;
  streamq::WindowedAggregation::Stats window_stats;
  int64_t timed_events = 0;
  /// Results emitted while the timed laps and the flush ran.
  int64_t timed_results = 0;
  /// Wall time from the first timed batch to the end of Flush.
  double timed_wall_s = 0.0;
  int64_t adaptations = 0;
  int64_t releases = 0;
  int64_t released_events = 0;
  /// Mean of the handler's slack K sampled after every timed batch.
  double mean_slack_us = 0.0;
  /// Events the window operator received in order / late.
  int64_t folded_events = 0;
  int64_t late_events = 0;
};

/// Runs `query` over every lap of `replay` through a hand-assembled
/// DisorderHandler -> WindowedAggregation pipeline on this thread — the
/// same stages, in the same order, that QueryExecutor and every shard of
/// the sharded runner assemble. With a recorder, the timed laps record a
/// root span "bench.run" with children "stream.replay" (producing the
/// batch), "disorder" (OnBatch / Flush) and, inside it, "window.fold",
/// "window.fire" and "window.late" (the window operator's sink calls).
PipelineRun RunHandAssembled(const streamq::ContinuousQuery& query,
                             LapReplay* replay, SpanRecorder* recorder);

/// Span names used across workloads.
inline constexpr std::string_view kSpanRun = "bench.run";
inline constexpr std::string_view kSpanReplay = "stream.replay";
inline constexpr std::string_view kSpanDisorder = "disorder";
inline constexpr std::string_view kSpanFold = "window.fold";
inline constexpr std::string_view kSpanFire = "window.fire";
inline constexpr std::string_view kSpanLate = "window.late";
inline constexpr std::string_view kSpanDriver = "core.driver";
inline constexpr std::string_view kSpanFinish = "core.finish";
inline constexpr std::string_view kSpanRtt = "net.rtt";
inline constexpr std::string_view kSpanSeal = "net.unregister";

/// Prints each span name's self time as a share of the root spans' time
/// ("bench.run"): the split of a traced run's wall time across the layers
/// and the benchmark's own code.
void PrintBreakdown(const SpanRecorder& recorder);

/// Sets the disorder.* and window.* metrics (and stream.replay) from a
/// traced hand-assembled run.
void SetPipelineLayerMetrics(const SpanRecorder& recorder,
                             const PipelineRun& run, RunResult* result);

/// Sets every per-layer metric of a layer the workload does not exercise
/// to 0, leaving metrics already set untouched.
void ZeroUnsetMetrics(RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
