// keyed-sharded: ShardedKeyedRunner with 3 workers. Per-key fixed K-slack
// (20 ms) feeds a 1.6 s / 100 ms sliding mean (fanout 16) with per-key
// watermarks over 1024 Zipf(1.1) keys. The benchmark thread is the runner's
// driver, pulling batches from its own EventSource, so a run uses 4
// threads. Window fold/fire and the runtime's routing and queues dominate;
// the disorder handler does little.

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "core/parallel_runner.h"
#include "core/session_options.h"
#include "net/frame.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kBlockEvents = 300000;
constexpr int kLaps = 4;  // Lap 0 warms up; laps 1-3 are timed.
constexpr int kMinReps = 3;
constexpr size_t kWorkers = 3;
/// Fixed K has no quality target; realized quality is scored against the
/// paper's default target.
constexpr double kNominalTarget = 0.95;

streamq::WorkloadConfig Input(uint64_t seed) {
  streamq::WorkloadConfig c;
  c.num_events = kBlockEvents;
  c.events_per_second = 100000.0;
  c.num_keys = 1024;
  c.key_zipf_s = 1.1;
  c.delay.model = streamq::DelayModel::kExponential;
  c.delay.a = 5000.0;  // 5 ms mean.
  c.seed = seed;
  return c;
}

streamq::SessionOptions Query() {
  return streamq::SessionOptions()
      .Name("keyed-sharded")
      .Window(1600)
      .Slide(100)
      .Aggregate("mean")
      .Strategy("fixed")
      .FixedK(20)
      .PerKey()
      .Threads(static_cast<int64_t>(kWorkers));
}

/// The runner's source. The driver calls NextBatch, routes and pushes the
/// batch it got, and calls NextBatch again; the time between a return and
/// the next call is one routing-and-push cycle — the keyed-sharded ingest
/// call. With a recorder, the timed laps record "bench.run" with children
/// "stream.replay" (inside NextBatch), "core.driver" (each cycle) and
/// "core.finish" (from the end of input until Run returns; see Finish).
class DriverSource : public streamq::EventSource {
 public:
  DriverSource(LapReplay* replay, SpanRecorder* recorder,
               std::vector<double>* cycle_us)
      : replay_(replay), recorder_(recorder), cycle_us_(cycle_us) {
    if (recorder_ != nullptr) {
      run_span_ = recorder_->Name(kSpanRun);
      replay_span_ = recorder_->Name(kSpanReplay);
      driver_span_ = recorder_->Name(kSpanDriver);
      finish_span_ = recorder_->Name(kSpanFinish);
    }
  }

  bool Next(Event* out) override {
    std::vector<Event> one;
    if (NextBatch(&one, 1) == 0) return false;
    *out = one.front();
    return true;
  }

  size_t NextBatch(std::vector<Event>* out, size_t max_events) override {
    const int64_t now = NowNs();
    if (in_cycle_) {
      cycle_us_->push_back(static_cast<double>(now - returned_at_) / 1e3);
      if (recorder_ != nullptr) recorder_->End(now);
      in_cycle_ = false;
    }
    if (!timing_ && replay_->next_lap() >= 1) {
      timing_ = true;
      start_ns_ = now;
      start_cpu_ = CpuSeconds();
      if (recorder_ != nullptr) recorder_->Begin(run_span_, -1, now);
    }
    size_t n = 0;
    {
      ScopedSpan span(timing_ ? recorder_ : nullptr, replay_span_, batches_);
      n = replay_->Next(max_events, out);
    }
    if (timing_ && n > 0) {
      in_cycle_ = true;
      if (recorder_ != nullptr) {
        recorder_->Begin(driver_span_, batches_, NowNs());
      }
      ++batches_;
    } else if (n == 0 && timing_ && !finishing_ && recorder_ != nullptr) {
      recorder_->Begin(finish_span_, batches_, NowNs());
      finishing_ = true;
    }
    returned_at_ = NowNs();
    return n;
  }

  void Reset() override {}

  /// Closes the spans once Run has returned at `now`.
  void Finish(int64_t now) {
    if (recorder_ == nullptr) return;
    while (recorder_->open_spans() > 0) recorder_->End(now);
  }

  int64_t start_ns() const { return start_ns_; }
  double start_cpu() const { return start_cpu_; }

 private:
  LapReplay* replay_;
  SpanRecorder* recorder_;
  std::vector<double>* cycle_us_;
  int run_span_ = 0;
  int replay_span_ = 0;
  int driver_span_ = 0;
  int finish_span_ = 0;
  bool timing_ = false;
  bool in_cycle_ = false;
  bool finishing_ = false;
  int64_t batches_ = 0;
  int64_t returned_at_ = 0;
  int64_t start_ns_ = 0;
  double start_cpu_ = 0.0;
};

/// Queue depth and backpressure from the runner's observer hooks. The
/// runner calls hooks from the driver and worker threads.
class RuntimeCounts : public streamq::PipelineObserver {
 public:
  void OnQueueDepth(size_t, size_t depth) override {
    depth_sum.fetch_add(static_cast<int64_t>(depth),
                        std::memory_order_relaxed);
    depth_samples.fetch_add(1, std::memory_order_relaxed);
  }
  void OnBackpressureStall(size_t) override {
    stalls.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<int64_t> depth_sum{0};
  std::atomic<int64_t> depth_samples{0};
  std::atomic<int64_t> stalls{0};
};

struct ShardedRep {
  Repetition measured;
  double eps = 0.0;
  double wall_ns = 0.0;
  uint64_t checksum = 0;
  streamq::RunReport report;
};

ShardedRep RunSharded(const streamq::ContinuousQuery& query,
                      const streamq::ParallelOptions& parallel,
                      LapReplay* replay, std::vector<double>* cycle_us,
                      SpanRecorder* recorder, RuntimeCounts* counts,
                      RunResult* result, RunResult* layers) {
  streamq::ShardedKeyedRunner runner(query, kWorkers, parallel);
  if (counts != nullptr) runner.SetObserver(counts);
  replay->Reset();
  DriverSource source(replay, recorder, cycle_us);
  ShardedRep rep;
  rep.report = runner.Run(&source);
  const int64_t end = NowNs();
  const double cpu = CpuSeconds() - source.start_cpu();
  source.Finish(end);

  rep.wall_ns = static_cast<double>(end - source.start_ns());
  const double events = static_cast<double>(replay->timed_events());
  rep.eps = events / (rep.wall_ns * 1e-9);
  rep.measured.events = events;
  rep.measured.wall_s = rep.wall_ns * 1e-9;
  rep.measured.cpu_s = cpu;
  rep.checksum = streamq::ResultChecksum(rep.report);
  result->Check(rep.report.status.ok(), "keyed-sharded run status");
  result->Check(IdentityHolds(rep.report.handler_stats),
                "keyed-sharded in == out + late + shed");
  result->Check(rep.report.events_processed ==
                    static_cast<int64_t>(replay->block().size()) *
                        replay->laps(),
                "keyed-sharded processed every event");

  if (layers != nullptr && recorder != nullptr && counts != nullptr) {
    const std::vector<streamq::WorkerLoad>& loads = runner.worker_loads();
    double max_routed = 0.0;
    double sum_routed = 0.0;
    for (const streamq::WorkerLoad& load : loads) {
      max_routed = std::max(max_routed,
                            static_cast<double>(load.events_routed));
      sum_routed += static_cast<double>(load.events_routed);
    }
    const double mean_routed =
        loads.empty() ? 0.0 : sum_routed / static_cast<double>(loads.size());
    layers->Set("core.driver_ns_per_event",
                static_cast<double>(recorder->totals(kSpanDriver).self_ns) /
                    events);
    layers->Set("stream.replay_ns_per_event",
                static_cast<double>(recorder->totals(kSpanReplay).self_ns) /
                    events);
    layers->Set("core.stalls_per_mevent",
                static_cast<double>(counts->stalls.load()) * 1e6 /
                    static_cast<double>(rep.report.events_processed));
    const int64_t depth_samples = counts->depth_samples.load();
    layers->Set("core.queue_depth_mean",
                depth_samples > 0
                    ? static_cast<double>(counts->depth_sum.load()) /
                          static_cast<double>(depth_samples)
                    : 0.0);
    layers->Set("core.route_skew",
                mean_routed > 0.0 ? max_routed / mean_routed : 0.0);
    layers->Set("core.steals", static_cast<double>(runner.steals()));
    layers->Set("core.migrations", static_cast<double>(runner.migrations()));
    layers->Set("trace.bench_share",
                static_cast<double>(recorder->totals(kSpanRun).self_ns) /
                    rep.wall_ns);
  }
  return rep;
}

}  // namespace

void RunKeyedSharded(const RunArgs& args, RunResult* result) {
  const streamq::SessionOptions options = Query();
  const streamq::WorkloadConfig config = Input(args.seed);
  PrintInfo("session_options", options.Serialize());
  PrintInfo("session", options.Describe());
  PrintInfo("workload_config", DescribeWorkload(config));
  const streamq::Result<streamq::ContinuousQuery> built = options.BuildQuery();
  result->Check(built.ok(), "keyed-sharded query builds");
  if (!built.ok()) return;
  const streamq::ContinuousQuery& query = built.value();
  const streamq::ParallelOptions parallel = options.BuildParallelOptions();
  // The sequential run of the same job: the runner forces per-key
  // watermarks on its shards, so the reference does too.
  streamq::ContinuousQuery sequential = query;
  sequential.window.per_key_watermarks = true;

  EndToEnd e2e;
  std::vector<double> generate_s;
  streamq::GeneratedWorkload workload;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t t0 = NowNs();
    workload = streamq::GenerateWorkload(config);
    const int64_t t1 = NowNs();
    streamq::ShardedKeyedRunner runner(query, kWorkers, parallel);
    const int64_t t2 = NowNs();
    generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  const std::vector<Event>& block = workload.arrival_order;
  LapReplay replay(&block, LapShift(block, query.window.window), kLaps);

  std::vector<double> traced_eps;
  std::vector<RunResult> layer_reps;
  SpanRecorder last_recorder;
  streamq::RunReport first_report;
  uint64_t checksum = 0;
  bool have_first = false;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int rep = 0;; ++rep) {
    const bool enough = static_cast<int>(e2e.reps.size()) >= kMinReps &&
                        (!args.trace ||
                         static_cast<int>(traced_eps.size()) >= kMinReps);
    if (enough && NowNs() >= deadline) break;
    if (args.trace && rep % 2 == 1) {
      SpanRecorder recorder;
      RuntimeCounts counts;
      RunResult layers;
      std::vector<double> unused_cycles;
      ShardedRep s = RunSharded(query, parallel, &replay, &unused_cycles,
                                &recorder, &counts, result, &layers);
      result->Check(s.checksum == checksum,
                    "keyed-sharded traced checksum matches untraced");
      traced_eps.push_back(s.eps);
      layer_reps.push_back(layers);
      last_recorder = std::move(recorder);
      continue;
    }
    std::vector<double> cycles;
    ShardedRep s = RunSharded(query, parallel, &replay, &cycles, nullptr,
                              nullptr, result, nullptr);
    s.measured.ingest_us = std::move(cycles);
    if (!have_first) {
      checksum = s.checksum;
      first_report = std::move(s.report);
      have_first = true;
    } else {
      result->Check(s.checksum == checksum,
                    "keyed-sharded checksum repeats across runs");
    }
    e2e.reps.push_back(std::move(s.measured));
  }
  e2e.peak_rss_mb = PeakRssMb();

  // The merged first emissions must equal the sequential run of the job.
  const PipelineRun seq = RunHandAssembled(sequential, &replay, nullptr);
  result->Check(CanonicalFirstEmissions(seq.results) ==
                    CanonicalFirstEmissions(first_report.results),
                "keyed-sharded first emissions equal the sequential run");
  result->Check(IdentityHolds(seq.handler_stats),
                "keyed-sharded sequential in == out + late + shed");

  const streamq::WindowSpec& window = query.window.window;
  e2e.quality_target = kNominalTarget;
  e2e.realized_quality = RealizedQuality(first_report.results, replay, window,
                                         query.window.aggregate);
  e2e.result_latency_ms =
      ResultLatenciesMs(first_report.results, replay, window);
  PrintInfo("checksum", std::to_string(checksum));

  if (!args.trace) {
    SetEndToEndMetrics(e2e, result);
    return;
  }
  // The disorder/window split comes from the sequential job, traced.
  SpanRecorder seq_recorder;
  const PipelineRun traced_seq =
      RunHandAssembled(sequential, &replay, &seq_recorder);
  SetPipelineLayerMetrics(seq_recorder, traced_seq, result);
  for (const char* count : {"core.steals", "core.migrations"}) {
    CheckRepeats(layer_reps, count, result);
  }
  SetMedianOf(layer_reps, result);
  const double threaded = e2e.Throughput();
  const double sequential_eps =
      static_cast<double>(seq.timed_events) / seq.timed_wall_s;
  result->Set("core.threaded_eps", threaded);
  result->Set("core.sequential_eps", sequential_eps);
  result->Set("core.speedup_vs_seq", threaded / sequential_eps);
  result->Set("core.cpu_per_wall", e2e.CpuPerWall());
  result->Set("stream.generate_s", Median(generate_s));
  result->Set("trace.overhead_share", 1.0 - Median(traced_eps) / threaded);
  result->Set("ingest.p99_us", e2e.IngestTail());
  result->Set("ingest.samples", static_cast<double>(e2e.ingest_samples()));
  result->Set("result_latency.samples",
              static_cast<double>(e2e.result_latency_ms.size()));
  ZeroUnsetMetrics(result);
  PrintBreakdown(last_recorder);
  const std::string spans = args.out_dir + "/spans-keyed-sharded-seed" +
                            std::to_string(args.seed) + ".csv";
  result->Check(last_recorder.WriteCsv(spans), "write " + spans);
}

}  // namespace perfbench
