// aq-global: the paper's pipeline. One global AQ-K-slack (quality target
// 0.95) feeds a 100 ms tumbling sum over one key, run sequentially on the
// benchmark thread through StreamSession::Ingest. The input has
// exponential 10 ms delays with x8 bursts (2 s period, 400 ms long), so the
// disorder handler and its control loop do most of the work.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/session_options.h"
#include "core/stream_session.h"
#include "net/frame.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kBlockEvents = 250000;
constexpr int kLaps = 5;  // Lap 0 warms up; laps 1-4 are timed.
constexpr int kMinReps = 3;
constexpr double kTarget = 0.95;

streamq::WorkloadConfig Input(uint64_t seed) {
  streamq::WorkloadConfig c;
  c.num_events = kBlockEvents;
  c.events_per_second = 10000.0;
  c.num_keys = 1;
  c.delay.model = streamq::DelayModel::kExponential;
  c.delay.a = 10000.0;  // 10 ms mean.
  c.dynamics.kind = streamq::DynamicsKind::kBurst;
  c.dynamics.factor = 8.0;
  c.dynamics.period = streamq::Seconds(2);
  c.dynamics.duration = streamq::Millis(400);
  c.seed = seed;
  return c;
}

streamq::SessionOptions Query() {
  return streamq::SessionOptions()
      .Name("aq-global")
      .Window(100)
      .Aggregate("sum")
      .Strategy("aq")
      .QualityTarget(kTarget);
}

struct SessionRep {
  Repetition measured;
  uint64_t checksum = 0;
  streamq::RunReport report;
};

/// One repetition: open a session, ingest the warmup lap, then time the
/// remaining laps and Finish.
SessionRep RunSession(const streamq::SessionOptions& options,
                      LapReplay* replay, RunResult* result) {
  SessionRep rep;
  streamq::Result<std::unique_ptr<streamq::StreamSession>> opened =
      streamq::StreamSession::Open(options);
  result->Check(opened.ok(), "open aq-global session");
  if (!opened.ok()) return rep;
  streamq::StreamSession& session = *opened.value();

  replay->Reset();
  std::vector<Event> batch;
  batch.reserve(kBatchEvents);
  int64_t calls = 0;
  int64_t failed = 0;
  while (replay->next_lap() == 0) {
    batch.clear();
    replay->Next(kBatchEvents, &batch);
    ++calls;
    failed += session.Ingest(batch).ok() ? 0 : 1;
  }

  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  for (;;) {
    batch.clear();
    if (replay->Next(kBatchEvents, &batch) == 0) break;
    const int64_t a = NowNs();
    const bool ok = session.Ingest(batch).ok();
    rep.measured.ingest_us.push_back(static_cast<double>(NowNs() - a) /
                                     1e3);
    ++calls;
    failed += ok ? 0 : 1;
  }
  rep.report = session.Finish();
  rep.measured.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  rep.measured.cpu_s = CpuSeconds() - cpu0;
  rep.measured.events = static_cast<double>(replay->timed_events());
  rep.checksum = streamq::ResultChecksum(rep.report);
  result->Count(calls, failed, "aq-global StreamSession::Ingest status");
  result->Check(rep.report.status.ok(), "aq-global session status");
  result->Check(IdentityHolds(rep.report.handler_stats),
                "aq-global in == out + late + shed");
  return rep;
}

}  // namespace

void RunAqGlobal(const RunArgs& args, RunResult* result) {
  const streamq::SessionOptions options = Query();
  const streamq::WorkloadConfig config = Input(args.seed);
  PrintInfo("session_options", options.Serialize());
  PrintInfo("session", options.Describe());
  PrintInfo("workload_config", DescribeWorkload(config));
  const streamq::Result<streamq::ContinuousQuery> built = options.BuildQuery();
  result->Check(built.ok(), "aq-global query builds");
  if (!built.ok()) return;
  const streamq::ContinuousQuery& query = built.value();

  // Set-up: generate the input block and open a session, several times.
  EndToEnd e2e;
  std::vector<double> generate_s;
  streamq::GeneratedWorkload workload;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t t0 = NowNs();
    workload = streamq::GenerateWorkload(config);
    const int64_t t1 = NowNs();
    const bool opened = streamq::StreamSession::Open(options).ok();
    const int64_t t2 = NowNs();
    result->Check(opened, "open aq-global session in set-up");
    generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  const std::vector<Event>& block = workload.arrival_order;
  LapReplay replay(&block, LapShift(block, query.window.window), kLaps);

  // Measure: untraced session repetitions, interleaved with traced
  // hand-assembled ones on a traced run.
  std::vector<double> traced_eps;
  std::vector<RunResult> layer_reps;
  SpanRecorder last_recorder;
  streamq::RunReport first_report;
  uint64_t checksum = 0;
  bool have_first = false;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int rep = 0;; ++rep) {
    const int untraced_done = static_cast<int>(e2e.reps.size());
    const bool enough = untraced_done >= kMinReps &&
                        (!args.trace ||
                         static_cast<int>(traced_eps.size()) >= kMinReps);
    if (enough && NowNs() >= deadline) break;
    if (args.trace && rep % 2 == 1) {
      SpanRecorder recorder;
      PipelineRun run = RunHandAssembled(query, &replay, &recorder);
      traced_eps.push_back(static_cast<double>(run.timed_events) /
                           run.timed_wall_s);
      streamq::RunReport traced;
      traced.results = run.results;
      result->Check(streamq::ResultChecksum(traced) == checksum,
                    "aq-global traced pipeline matches the session");
      result->Check(IdentityHolds(run.handler_stats),
                    "aq-global traced in == out + late + shed");
      RunResult layers;
      SetPipelineLayerMetrics(recorder, run, &layers);
      layers.Set("trace.bench_share",
                 static_cast<double>(recorder.totals(kSpanRun).self_ns) /
                     (run.timed_wall_s * 1e9));
      layer_reps.push_back(layers);
      last_recorder = std::move(recorder);
      continue;
    }
    SessionRep s = RunSession(options, &replay, result);
    if (!have_first) {
      checksum = s.checksum;
      first_report = std::move(s.report);
      have_first = true;
    } else {
      result->Check(s.checksum == checksum,
                    "aq-global checksum repeats across runs");
    }
    e2e.reps.push_back(std::move(s.measured));
  }
  e2e.peak_rss_mb = PeakRssMb();

  const streamq::WindowSpec& window = query.window.window;
  e2e.quality_target = kTarget;
  e2e.realized_quality = RealizedQuality(first_report.results, replay, window,
                                         query.window.aggregate);
  e2e.result_latency_ms =
      ResultLatenciesMs(first_report.results, replay, window);
  PrintInfo("checksum", std::to_string(checksum));

  if (!args.trace) {
    SetEndToEndMetrics(e2e, result);
    return;
  }
  for (const char* count : {"window.results", "disorder.adaptations",
                            "disorder.max_buffered", "disorder.late_share",
                            "window.max_live_windows"}) {
    CheckRepeats(layer_reps, count, result);
  }
  SetMedianOf(layer_reps, result);
  result->Set("stream.generate_s", Median(generate_s));
  result->Set("core.cpu_per_wall", e2e.CpuPerWall());
  result->Set("trace.overhead_share",
              1.0 - Median(traced_eps) / e2e.Throughput());
  result->Set("ingest.p99_us", e2e.IngestTail());
  result->Set("ingest.samples", static_cast<double>(e2e.ingest_samples()));
  result->Set("result_latency.samples",
              static_cast<double>(e2e.result_latency_ms.size()));
  ZeroUnsetMetrics(result);
  PrintBreakdown(last_recorder);
  const std::string spans = args.out_dir + "/spans-aq-global-seed" +
                            std::to_string(args.seed) + ".csv";
  result->Check(last_recorder.WriteCsv(spans), "write " + spans);
}

}  // namespace perfbench
