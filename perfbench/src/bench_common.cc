#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "quality/oracle.h"
#include "quality/quality_metrics.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM carries kB resolution; ru_maxrss is the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      if (fields >> kb) return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SupportedQuantile(size_t n, double wanted) {
  if (n == 0) return 0.5;
  // Nearest rank r = ceil(q * n) leaves n - r samples beyond it.
  const double highest =
      1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, highest));
}

double NearestRank(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q * n from rounding up past an exact rank.
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Distribution Summarize(std::vector<double> samples, double wanted_tail) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = NearestRank(samples, 0.5);
  d.tail_q = SupportedQuantile(samples.size(), wanted_tail);
  d.tail = NearestRank(samples, d.tail_q);
  return d;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"throughput_eps", "1/s"},
      {"ingest_p50_us", "us"},
      {"result_latency_p50_ms", "ms"},
      {"result_latency_p99_ms", "ms"},
      {"quality_attainment", "ratio"},
      {"cpu_ns_per_event", "ns"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
      {"success_rate", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"stream.generate_s", "s"},
      {"stream.replay_ns_per_event", "ns"},
      {"disorder.self_ns_per_event", "ns"},
      {"disorder.batch_self_p99_ns", "ns"},
      {"disorder.adaptations", "count"},
      {"disorder.mean_slack_ms", "ms"},
      {"disorder.late_share", "ratio"},
      {"disorder.release_events_per_call", "events"},
      {"disorder.max_buffered", "events"},
      {"window.fold_ns_per_event", "ns"},
      {"window.fire_ns_per_result", "ns"},
      {"window.late_ns_per_event", "ns"},
      {"window.results", "count"},
      {"window.max_live_windows", "count"},
      {"core.driver_ns_per_event", "ns"},
      {"core.stalls_per_mevent", "1/Mevent"},
      {"core.queue_depth_mean", "batches"},
      {"core.route_skew", "ratio"},
      {"core.steals", "count"},
      {"core.migrations", "count"},
      {"core.cpu_per_wall", "ratio"},
      {"core.speedup_vs_seq", "ratio"},
      {"core.threaded_eps", "1/s"},
      {"core.sequential_eps", "1/s"},
      {"net.encode_ns_per_event", "ns"},
      {"net.decode_ns_per_event", "ns"},
      {"net.session_ns_per_event", "ns"},
      {"net.transport_us_per_frame", "us"},
      {"net.bytes_per_event", "B"},
      {"net.server_errors", "count"},
      {"trace.overhead_share", "ratio"},
      {"trace.bench_share", "ratio"},
      {"ingest.p99_us", "us"},
      {"ingest.samples", "count"},
      {"result_latency.samples", "count"},
  };
  return kMetrics;
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "check failed: " << what << "\n";
}

void RunResult::Count(int64_t attempted, int64_t failed,
                      const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "check failed: " << what << " (" << failed << " of "
              << attempted << ")\n";
  }
}

bool RunResult::Render(const std::vector<MetricSpec>& specs,
                       std::string* line, std::string* error) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      *error = std::string("metric ") + spec.name + " was not measured";
      return false;
    }
    if (!std::isfinite(it->second)) {
      *error = std::string("metric ") + spec.name + " is not finite";
      return false;
    }
    out << (first ? "" : ", ") << "\"" << spec.name
        << "\": {\"value\": " << it->second << ", \"unit\": \"" << spec.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  *line = out.str();
  return true;
}

void SetMedianOf(const std::vector<RunResult>& reps, RunResult* out) {
  std::map<std::string, std::vector<double>> samples;
  for (const RunResult& rep : reps) {
    for (const auto& [name, value] : rep.values()) {
      samples[name].push_back(value);
    }
  }
  for (auto& [name, values] : samples) out->Set(name, Median(values));
}

void CheckRepeats(const std::vector<RunResult>& reps, const std::string& name,
                  RunResult* out) {
  if (reps.empty()) return;
  const double first = reps.front().values().at(name);
  bool same = true;
  for (const RunResult& rep : reps) same &= rep.values().at(name) == first;
  out->Check(same, name + " repeats across runs of one seed");
}

double EndToEnd::Throughput() const {
  double events = 0.0;
  double wall = 0.0;
  for (const Repetition& r : reps) {
    events += r.events;
    wall += r.wall_s;
  }
  return wall > 0.0 ? events / wall : 0.0;
}

double EndToEnd::CpuPerWall() const {
  double cpu = 0.0;
  double wall = 0.0;
  for (const Repetition& r : reps) {
    cpu += r.cpu_s;
    wall += r.wall_s;
  }
  return wall > 0.0 ? cpu / wall : 0.0;
}

double EndToEnd::IngestTail() const {
  std::vector<double> tails;
  for (const Repetition& r : reps) {
    tails.push_back(Summarize(r.ingest_us, 0.99).tail);
  }
  std::sort(tails.begin(), tails.end());
  return tails.empty() ? 0.0 : NearestRank(tails, 0.25);
}

size_t EndToEnd::ingest_samples() const {
  size_t n = 0;
  for (const Repetition& r : reps) n += r.ingest_us.size();
  return n;
}

void SetEndToEndMetrics(const EndToEnd& e2e, RunResult* result) {
  // Rates are taken over every repetition together (total work over total
  // time) and the median over the pooled samples: on a host whose speed
  // drifts between regimes, both move smoothly with the mix of regimes a
  // run saw, where a median of per-repetition values jumps between them.
  std::vector<double> pooled;
  std::vector<double> rep_eps;
  std::vector<double> rep_tails;
  size_t rep_samples = SIZE_MAX;
  double rep_tail_q = 1.0;
  double events = 0.0;
  double cpu = 0.0;
  for (const Repetition& r : e2e.reps) {
    pooled.insert(pooled.end(), r.ingest_us.begin(), r.ingest_us.end());
    rep_eps.push_back(r.events / r.wall_s);
    const Distribution tail = Summarize(r.ingest_us, 0.99);
    rep_tails.push_back(tail.tail);
    rep_samples = std::min(rep_samples, tail.n);
    rep_tail_q = std::min(rep_tail_q, tail.tail_q);
    events += r.events;
    cpu += r.cpu_s;
  }
  const Distribution ingest = Summarize(pooled, 0.99);
  const Distribution latency = Summarize(e2e.result_latency_ms, 0.99);
  result->Set("throughput_eps", e2e.Throughput());
  result->Set("ingest_p50_us", ingest.p50);
  result->Set("result_latency_p50_ms", latency.p50);
  result->Set("result_latency_p99_ms", latency.tail);
  result->Set("quality_attainment",
              std::min(1.0, e2e.realized_quality / e2e.quality_target));
  result->Set("cpu_ns_per_event", events > 0.0 ? cpu * 1e9 / events : 0.0);
  result->Set("peak_rss_mb", e2e.peak_rss_mb);
  result->Set("setup_s", Median(e2e.setup_s));
  auto quartiles = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    std::string text;
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      if (!text.empty()) text += " ";
      text += std::to_string(values.empty() ? 0.0 : NearestRank(values, q));
    }
    return text;
  };
  PrintInfo("repetitions", std::to_string(e2e.reps.size()));
  PrintInfo("rep_eps_min_q1_median_q3_max", quartiles(rep_eps));
  PrintInfo("rep_p99_us_min_q1_median_q3_max", quartiles(rep_tails));
  PrintInfo("ingest_samples",
            std::to_string(ingest.n) + " per_repetition_min=" +
                std::to_string(rep_samples) +
                " tail_quantile=" + std::to_string(rep_tail_q));
  PrintInfo("ingest_pooled_tail_us", std::to_string(ingest.tail));
  PrintInfo("result_latency_samples",
            std::to_string(latency.n) +
                " tail_quantile=" + std::to_string(latency.tail_q));
  PrintInfo("realized_quality", std::to_string(e2e.realized_quality) +
                                    " target=" +
                                    std::to_string(e2e.quality_target));
}

void PrintInfo(const std::string& key, const std::string& value) {
  std::cout << key << "=" << value << "\n";
}

std::string DescribeWorkload(const streamq::WorkloadConfig& c) {
  std::ostringstream out;
  out << "num_events=" << c.num_events
      << " events_per_second=" << c.events_per_second
      << " poisson=" << (c.poisson_arrivals ? 1 : 0)
      << " num_keys=" << c.num_keys << " key_zipf_s=" << c.key_zipf_s
      << " key_delay_spread=" << c.key_delay_spread
      << " delay=" << c.delay.Describe()
      << " dynamics=" << c.dynamics.Describe()
      << " delayed_fraction=" << c.delayed_fraction
      << " value_model=" << static_cast<int>(c.value.model)
      << " value=(" << c.value.a << "," << c.value.b << "," << c.value.c
      << ") seed=" << c.seed;
  return out.str();
}

DurationUs LapShift(const std::vector<Event>& block,
                    const streamq::WindowSpec& window) {
  TimestampUs last = 0;
  for (const Event& e : block) {
    last = std::max({last, e.event_time, e.arrival_time});
  }
  const DurationUs span = last + window.size;
  return (span / window.slide + 1) * window.slide;
}

LapReplay::LapReplay(const std::vector<Event>* block, DurationUs shift,
                     int laps)
    : block_(block), shift_(shift), laps_(laps) {}

size_t LapReplay::Next(size_t max_events, std::vector<Event>* out) {
  if (lap_ >= laps_ || block_->empty()) return 0;
  const size_t n = std::min(max_events, block_->size() - pos_);
  const size_t first = out->size();
  out->insert(out->end(), block_->begin() + static_cast<ptrdiff_t>(pos_),
              block_->begin() + static_cast<ptrdiff_t>(pos_ + n));
  if (lap_ > 0) {
    const DurationUs shift = shift_ * lap_;
    const int64_t id_shift = static_cast<int64_t>(block_->size()) * lap_;
    for (size_t i = first; i < out->size(); ++i) {
      Event& e = (*out)[i];
      e.id += id_shift;
      e.event_time += shift;
      e.arrival_time += shift;
    }
  }
  pos_ += n;
  if (pos_ == block_->size()) {
    pos_ = 0;
    ++lap_;
  }
  return n;
}

bool IdentityHolds(const streamq::DisorderHandlerStats& s) {
  return s.events_in == s.events_out + s.events_late + s.events_shed;
}

std::vector<WindowResult> CanonicalFirstEmissions(
    const std::vector<WindowResult>& results) {
  std::vector<WindowResult> out;
  out.reserve(results.size());
  for (const WindowResult& r : results) {
    if (r.is_revision) continue;
    WindowResult c;
    c.bounds = r.bounds;
    c.key = r.key;
    c.value = r.value;
    c.tuple_count = r.tuple_count;
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const WindowResult& a, const WindowResult& b) {
              if (a.bounds.start != b.bounds.start) {
                return a.bounds.start < b.bounds.start;
              }
              return a.key < b.key;
            });
  return out;
}

namespace {

/// Lap whose tuples `bounds` covers (see LapShift: no window spans two).
int LapOf(const streamq::WindowBounds& bounds, const LapReplay& replay,
          const streamq::WindowSpec& window) {
  const int64_t lap = streamq::window_internal::FloorDiv(
      bounds.start + window.size - 1, replay.shift());
  return static_cast<int>(std::clamp<int64_t>(lap, 0, replay.laps() - 1));
}

}  // namespace

std::vector<double> ResultLatenciesMs(const std::vector<WindowResult>& results,
                                      const LapReplay& replay,
                                      const streamq::WindowSpec& window) {
  TimestampUs block_last_arrival = 0;
  for (const Event& e : replay.block()) {
    block_last_arrival = std::max(block_last_arrival, e.arrival_time);
  }
  std::vector<double> out;
  out.reserve(results.size());
  for (const WindowResult& r : results) {
    if (r.is_revision) continue;
    const int lap = LapOf(r.bounds, replay, window);
    if (r.emit_stream_time > replay.shift() * lap + block_last_arrival) {
      continue;
    }
    out.push_back(static_cast<double>(std::max<DurationUs>(
                      0, r.emit_stream_time - r.bounds.end)) /
                  1000.0);
  }
  return out;
}

double RealizedQuality(const std::vector<WindowResult>& results,
                       const LapReplay& replay,
                       const streamq::WindowSpec& window,
                       const streamq::AggregateSpec& aggregate) {
  const streamq::OracleEvaluator oracle(replay.block(), window, aggregate);
  std::vector<std::vector<WindowResult>> per_lap(
      static_cast<size_t>(replay.laps()));
  for (const WindowResult& r : results) {
    const int lap = LapOf(r.bounds, replay, window);
    WindowResult mapped = r;
    const DurationUs back = replay.shift() * lap;
    mapped.bounds.start -= back;
    mapped.bounds.end -= back;
    mapped.emit_stream_time -= back;
    per_lap[static_cast<size_t>(lap)].push_back(mapped);
  }
  double weighted = 0.0;
  int64_t windows = 0;
  for (const std::vector<WindowResult>& lap_results : per_lap) {
    const streamq::QualityReport q =
        streamq::EvaluateQuality(lap_results, oracle);
    const int64_t total =
        static_cast<int64_t>(q.per_window.size()) + q.missed_windows;
    weighted += q.MeanQualityIncludingMissed() * static_cast<double>(total);
    windows += total;
  }
  return windows > 0 ? weighted / static_cast<double>(windows) : 0.0;
}

}  // namespace perfbench
