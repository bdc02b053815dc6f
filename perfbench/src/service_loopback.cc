// service-loopback: an in-process StreamQServer on 127.0.0.1 with 3
// tenants. Each tenant has its own client thread and connection, calling
// StreamQClient::Ingest in a closed loop; the tenant query is a fixed-K
// 50 ms tumbling count over a fixed number of events, so each sealed
// checksum is deterministic. Frames, sockets and session dispatch dominate.

#include <algorithm>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session_options.h"
#include "core/stream_session.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTenants = 3;
constexpr int64_t kBlockEvents = 100000;  // Per tenant.
constexpr int kLaps = 5;                  // Lap 0 warms up; 1-4 are timed.
constexpr int kMinReps = 3;
/// Fixed K has no quality target; realized quality is scored against the
/// paper's default target.
constexpr double kNominalTarget = 0.95;

streamq::WorkloadConfig TenantInput(uint64_t seed, int tenant) {
  streamq::WorkloadConfig c;
  c.num_events = kBlockEvents;
  c.events_per_second = 10000.0;
  c.num_keys = 64;
  c.delay.model = streamq::DelayModel::kExponential;
  c.delay.a = 5000.0;  // 5 ms mean.
  c.seed = seed ^ (static_cast<uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL);
  return c;
}

streamq::SessionOptions TenantQuery(int tenant) {
  return streamq::SessionOptions()
      .Name("tenant-" + std::to_string(tenant))
      .Window(50)
      .Aggregate("count")
      .Strategy("fixed")
      .FixedK(50);
}

/// The server and one connection per tenant plus a control connection.
class Service {
 public:
  Service() = default;
  ~Service() {
    clients.clear();
    control.reset();
    if (server != nullptr) server->Stop();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  bool Start() {
    server = std::make_unique<streamq::StreamQServer>();
    if (!server->Start().ok()) return false;
    for (int t = 0; t <= kTenants; ++t) {
      streamq::Result<std::unique_ptr<streamq::StreamQClient>> connected =
          streamq::StreamQClient::Connect(server->port());
      if (!connected.ok()) return false;
      if (t == kTenants) {
        control = std::move(connected).value();
      } else {
        clients.push_back(std::move(connected).value());
      }
    }
    return true;
  }

  std::unique_ptr<streamq::StreamQServer> server;
  std::vector<std::unique_ptr<streamq::StreamQClient>> clients;
  std::unique_ptr<streamq::StreamQClient> control;
};

/// What one client thread saw in one repetition.
struct ClientOutcome {
  bool registered = false;
  int64_t calls = 0;
  int64_t failed = 0;
  int64_t sent = 0;
  std::vector<double> rtt_us;
  bool sealed_ok = false;
  streamq::SnapshotStats sealed;
  int64_t end_ns = 0;
};

/// Client thread body: register, ingest the warmup lap, wait for the
/// start, ingest the timed laps (one RTT sample per call), unregister.
void DriveTenant(streamq::StreamQClient* client, uint32_t tenant,
                 const streamq::SessionOptions& query, LapReplay* replay,
                 std::latch* warmed, std::latch* go, SpanRecorder* recorder,
                 ClientOutcome* out) {
  out->registered = client->RegisterQuery(tenant, query).ok();
  replay->Reset();
  std::vector<Event> batch;
  batch.reserve(kBatchEvents);
  auto send = [&](bool timed) {
    const int64_t a = NowNs();
    const bool ok = client->Ingest(tenant, batch).ok();
    if (timed) out->rtt_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
    ++out->calls;
    if (ok) {
      out->sent += static_cast<int64_t>(batch.size());
    } else {
      ++out->failed;
    }
  };
  while (replay->next_lap() == 0) {
    batch.clear();
    replay->Next(kBatchEvents, &batch);
    send(false);
  }
  warmed->count_down();
  go->wait();

  const int run_span = recorder == nullptr ? 0 : recorder->Name(kSpanRun);
  const int replay_span =
      recorder == nullptr ? 0 : recorder->Name(kSpanReplay);
  const int rtt_span = recorder == nullptr ? 0 : recorder->Name(kSpanRtt);
  const int seal_span = recorder == nullptr ? 0 : recorder->Name(kSpanSeal);
  if (recorder != nullptr) recorder->Begin(run_span, -1, NowNs());
  for (int64_t id = 0;; ++id) {
    batch.clear();
    size_t n = 0;
    {
      ScopedSpan span(recorder, replay_span, id);
      n = replay->Next(kBatchEvents, &batch);
    }
    if (n == 0) break;
    ScopedSpan span(recorder, rtt_span, id);
    send(true);
  }
  if (recorder != nullptr) recorder->Begin(seal_span, -1, NowNs());
  streamq::Result<streamq::SnapshotStats> sealed = client->Unregister(tenant);
  out->end_ns = NowNs();
  if (recorder != nullptr) {
    recorder->End(out->end_ns);
    recorder->End(out->end_ns);
  }
  out->sealed_ok = sealed.ok();
  if (sealed.ok()) out->sealed = sealed.value();
}

struct ServiceRep {
  Repetition measured;
  double eps = 0.0;
  double bench_share = 0.0;
  bool started = false;
  bool scrape_ok = false;
  int64_t server_errors = 0;
  std::vector<ClientOutcome> outcomes;
};

/// One repetition on a fresh server and fresh connections, so every
/// repetition draws its own placement of client and server threads on the
/// cores instead of a whole run inheriting one.
ServiceRep RunRep(std::vector<LapReplay>* replays,
                  const std::vector<streamq::SessionOptions>& queries,
                  std::vector<SpanRecorder>* recorders) {
  ServiceRep rep;
  Service service;
  rep.started = service.Start();
  if (!rep.started) return rep;
  std::latch warmed(kTenants);
  std::latch go(1);
  rep.outcomes.resize(kTenants);
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    const size_t i = static_cast<size_t>(t);
    threads.emplace_back(DriveTenant, service.clients[i].get(),
                         static_cast<uint32_t>(t + 1), std::cref(queries[i]),
                         &(*replays)[i], &warmed, &go,
                         recorders == nullptr ? nullptr : &(*recorders)[i],
                         &rep.outcomes[i]);
  }
  warmed.wait();
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  go.count_down();
  for (std::thread& thread : threads) thread.join();
  const double cpu = CpuSeconds() - cpu0;
  int64_t end = t0;
  double events = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    end = std::max(end, rep.outcomes[static_cast<size_t>(t)].end_ns);
    events +=
        static_cast<double>((*replays)[static_cast<size_t>(t)].timed_events());
  }
  const double wall = static_cast<double>(end - t0) * 1e-9;
  rep.eps = events / wall;
  rep.measured.events = events;
  rep.measured.wall_s = wall;
  rep.measured.cpu_s = cpu;
  if (recorders != nullptr) {
    double self = 0.0;
    double total = 0.0;
    for (const SpanRecorder& r : *recorders) {
      self += static_cast<double>(r.totals(kSpanRun).self_ns);
      total += static_cast<double>(r.totals(kSpanRun).total_ns);
    }
    rep.bench_share = total > 0.0 ? self / total : 0.0;
  }
  const streamq::Result<std::string> scrape = service.control->Metrics();
  rep.scrape_ok = scrape.ok() && !scrape.value().empty();
  const streamq::ServerStats stats = service.server->stats();
  rep.server_errors = stats.protocol_errors + stats.application_errors;
  return rep;
}

/// The local reference for one tenant: a StreamSession over the same
/// stream, with the timed laps' Ingest calls timed.
struct LocalRun {
  streamq::RunReport report;
  uint64_t checksum = 0;
  double ingest_ns = 0.0;
};

LocalRun RunLocal(const streamq::SessionOptions& query, LapReplay* replay,
                  RunResult* result) {
  LocalRun local;
  streamq::Result<std::unique_ptr<streamq::StreamSession>> opened =
      streamq::StreamSession::Open(query);
  result->Check(opened.ok(), "open local reference session");
  if (!opened.ok()) return local;
  replay->Reset();
  std::vector<Event> batch;
  batch.reserve(kBatchEvents);
  int64_t failed = 0;
  int64_t calls = 0;
  for (;;) {
    const bool timed = replay->next_lap() >= 1;
    batch.clear();
    if (replay->Next(kBatchEvents, &batch) == 0) break;
    const int64_t a = NowNs();
    failed += opened.value()->Ingest(batch).ok() ? 0 : 1;
    if (timed) local.ingest_ns += static_cast<double>(NowNs() - a);
    ++calls;
  }
  result->Count(calls, failed, "local reference ingest status");
  local.report = opened.value()->Finish();
  local.checksum = streamq::ResultChecksum(local.report);
  return local;
}

}  // namespace

void RunServiceLoopback(const RunArgs& args, RunResult* result) {
  std::vector<streamq::SessionOptions> queries;
  std::vector<streamq::WorkloadConfig> configs;
  for (int t = 1; t <= kTenants; ++t) {
    queries.push_back(TenantQuery(t));
    configs.push_back(TenantInput(args.seed, t));
    PrintInfo("session_options.tenant-" + std::to_string(t),
              queries.back().Serialize());
    PrintInfo("session.tenant-" + std::to_string(t),
              queries.back().Describe());
    PrintInfo("workload_config.tenant-" + std::to_string(t),
              DescribeWorkload(configs.back()));
  }
  const streamq::Result<streamq::ContinuousQuery> built =
      queries.front().BuildQuery();
  result->Check(built.ok(), "service-loopback tenant query builds");
  if (!built.ok()) return;
  const streamq::ContinuousQuery& query = built.value();
  const streamq::WindowSpec& window = query.window.window;

  // Set-up: generate every tenant's block, start a server and connect.
  EndToEnd e2e;
  std::vector<double> generate_s;
  std::vector<streamq::GeneratedWorkload> workloads(kTenants);
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t t0 = NowNs();
    for (int t = 0; t < kTenants; ++t) {
      workloads[static_cast<size_t>(t)] =
          streamq::GenerateWorkload(configs[static_cast<size_t>(t)]);
    }
    const int64_t t1 = NowNs();
    Service service;
    const bool started = service.Start();
    const int64_t t2 = NowNs();
    result->Check(started, "start server and connect clients");
    if (!started) return;
    generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  std::vector<LapReplay> replays;
  for (const streamq::GeneratedWorkload& w : workloads) {
    replays.emplace_back(&w.arrival_order, LapShift(w.arrival_order, window),
                         kLaps);
  }

  std::vector<double> traced_eps;
  std::vector<RunResult> layer_reps;
  std::vector<ServiceRep> reps;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int rep = 0;; ++rep) {
    const bool enough = static_cast<int>(e2e.reps.size()) >= kMinReps &&
                        (!args.trace ||
                         static_cast<int>(traced_eps.size()) >= kMinReps);
    if (enough && NowNs() >= deadline) break;
    const bool traced = args.trace && rep % 2 == 1;
    std::vector<SpanRecorder> recorders(kTenants);
    ServiceRep r = RunRep(&replays, queries, traced ? &recorders : nullptr);
    result->Check(r.started, "start server and connect clients");
    if (!r.started) return;
    if (traced) {
      traced_eps.push_back(r.eps);
      RunResult layers;
      SpanRecorder merged;
      double events = 0.0;
      for (int t = 0; t < kTenants; ++t) {
        merged.MergeTotals(recorders[static_cast<size_t>(t)]);
        events += static_cast<double>(
            replays[static_cast<size_t>(t)].timed_events());
      }
      layers.Set("stream.replay_ns_per_event",
                 static_cast<double>(merged.totals(kSpanReplay).self_ns) /
                     events);
      layers.Set("trace.bench_share", r.bench_share);
      layer_reps.push_back(layers);
      if (rep == 1) {
        PrintBreakdown(merged);
        const std::string spans = args.out_dir +
                                  "/spans-service-loopback-seed" +
                                  std::to_string(args.seed) + ".csv";
        result->Check(recorders.front().WriteCsv(spans), "write " + spans);
      }
    } else {
      for (ClientOutcome& o : r.outcomes) {
        r.measured.ingest_us.insert(r.measured.ingest_us.end(),
                                    o.rtt_us.begin(), o.rtt_us.end());
      }
      e2e.reps.push_back(std::move(r.measured));
    }
    for (ClientOutcome& o : r.outcomes) o.rtt_us.clear();
    reps.push_back(std::move(r));
  }
  e2e.peak_rss_mb = PeakRssMb();

  // Every sealed report must match a local session over the same stream.
  std::vector<LocalRun> locals;
  for (int t = 0; t < kTenants; ++t) {
    const size_t i = static_cast<size_t>(t);
    locals.push_back(RunLocal(queries[i], &replays[i], result));
  }
  for (const ServiceRep& r : reps) {
    for (int t = 0; t < kTenants; ++t) {
      const ClientOutcome& o = r.outcomes[static_cast<size_t>(t)];
      const std::string who = "tenant-" + std::to_string(t + 1);
      result->Check(o.registered, who + " RegisterQuery");
      result->Count(o.calls, o.failed, who + " StreamQClient::Ingest status");
      result->Check(o.sealed_ok, who + " Unregister");
      if (!o.sealed_ok) continue;
      result->Check(o.sealed.status_code == streamq::StatusCode::kOk,
                    who + " sealed status");
      result->Check(o.sealed.AccountingIdentityHolds(),
                    who + " in == out + late + shed");
      result->Check(o.sealed.events_ingested == o.sent,
                    who + " delivered every event");
      result->Check(
          o.sealed.result_checksum == locals[static_cast<size_t>(t)].checksum,
          who + " sealed checksum equals the local session's");
    }
  }
  int64_t server_errors = 0;
  for (const ServiceRep& r : reps) {
    result->Check(r.scrape_ok, "metrics scrape");
    result->Check(r.server_errors == 0, "server reports no errors");
    server_errors += r.server_errors;
  }

  double quality_sum = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    const size_t i = static_cast<size_t>(t);
    quality_sum += RealizedQuality(locals[i].report.results, replays[i],
                                   window, query.window.aggregate);
    const std::vector<double> latencies =
        ResultLatenciesMs(locals[i].report.results, replays[i], window);
    e2e.result_latency_ms.insert(e2e.result_latency_ms.end(),
                                 latencies.begin(), latencies.end());
  }
  e2e.quality_target = kNominalTarget;
  e2e.realized_quality = quality_sum / kTenants;
  std::string checksums;
  for (const LocalRun& local : locals) {
    if (!checksums.empty()) checksums += ",";
    checksums += std::to_string(local.checksum);
  }
  PrintInfo("checksums", checksums);

  if (!args.trace) {
    SetEndToEndMetrics(e2e, result);
    return;
  }

  // net: the codec and the session work of a frame, measured locally on
  // the same batches; the rest of a round trip is transport.
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double bytes = 0.0;
  double events = 0.0;
  double frames = 0.0;
  double session_ns = 0.0;
  std::vector<RunResult> pipeline_reps;
  for (int t = 0; t < kTenants; ++t) {
    const size_t i = static_cast<size_t>(t);
    LapReplay& replay = replays[i];
    replay.Reset();
    std::vector<Event> batch;
    std::vector<Event> decoded;
    std::string payload;
    bool round_trip = true;
    for (;;) {
      const bool timed = replay.next_lap() >= 1;
      batch.clear();
      if (replay.Next(kBatchEvents, &batch) == 0) break;
      if (!timed) continue;
      payload.clear();
      decoded.clear();
      const int64_t a = NowNs();
      streamq::EncodeEventBatch(batch, &payload);
      const int64_t b = NowNs();
      round_trip &= streamq::DecodeEventBatch(payload, &decoded).ok();
      const int64_t c = NowNs();
      round_trip &= decoded == batch;
      encode_ns += static_cast<double>(b - a);
      decode_ns += static_cast<double>(c - b);
      bytes += static_cast<double>(payload.size());
      events += static_cast<double>(batch.size());
      frames += 1.0;
    }
    result->Check(round_trip, "event batch codec round trip");
    session_ns += locals[i].ingest_ns;

    SpanRecorder recorder;
    const PipelineRun run = RunHandAssembled(query, &replay, &recorder);
    result->Check(CanonicalFirstEmissions(run.results) ==
                      CanonicalFirstEmissions(locals[i].report.results),
                  "tenant traced pipeline matches the local session");
    RunResult layers;
    SetPipelineLayerMetrics(recorder, run, &layers);
    pipeline_reps.push_back(layers);
  }
  SetMedianOf(pipeline_reps, result);
  SetMedianOf(layer_reps, result);
  const double frame_events = events / frames;
  const double encode_per_event = encode_ns / events;
  const double decode_per_event = decode_ns / events;
  const double session_per_event = session_ns / events;
  double rtt_sum = 0.0;
  for (const Repetition& measured : e2e.reps) {
    for (double rtt : measured.ingest_us) rtt_sum += rtt;
  }
  const double mean_rtt_us =
      rtt_sum / static_cast<double>(std::max<size_t>(1, e2e.ingest_samples()));
  result->Set("net.encode_ns_per_event", encode_per_event);
  result->Set("net.decode_ns_per_event", decode_per_event);
  result->Set("net.session_ns_per_event", session_per_event);
  result->Set("net.transport_us_per_frame",
              mean_rtt_us - (encode_per_event + decode_per_event +
                             session_per_event) *
                                frame_events / 1e3);
  result->Set("net.bytes_per_event", bytes / events);
  result->Set("net.server_errors", static_cast<double>(server_errors));
  result->Set("core.cpu_per_wall", e2e.CpuPerWall());
  result->Set("stream.generate_s", Median(generate_s));
  result->Set("trace.overhead_share",
              1.0 - Median(traced_eps) / e2e.Throughput());
  result->Set("ingest.p99_us", e2e.IngestTail());
  result->Set("ingest.samples", static_cast<double>(e2e.ingest_samples()));
  result->Set("result_latency.samples",
              static_cast<double>(e2e.result_latency_ms.size()));
  ZeroUnsetMetrics(result);
}

}  // namespace perfbench
