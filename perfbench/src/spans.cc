#include "spans.h"

#include <algorithm>
#include <fstream>
#include <memory>

#include "disorder/handler_factory.h"

namespace perfbench {

int SpanRecorder::Name(std::string_view name, bool keep_self_samples) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      if (keep_self_samples) keep_samples_[i] = true;
      return static_cast<int>(i);
    }
  }
  names_.emplace_back(name);
  keep_samples_.push_back(keep_self_samples);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void SpanRecorder::Begin(int name, int64_t batch, int64_t now_ns) {
  int64_t stored = -1;
  if (spans_.size() < max_stored_) {
    const int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    stored = static_cast<int64_t>(spans_.size());
    spans_.push_back(Stored{name, parent, batch, now_ns, now_ns});
  } else {
    ++spans_dropped_;
  }
  stack_.push_back(Open{name, batch, now_ns, 0, stored});
}

void SpanRecorder::End(int64_t now_ns) {
  if (stack_.empty()) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - open.start_ns;
  const int64_t self = duration - open.child_ns;
  Totals& t = totals_[static_cast<size_t>(open.name)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += self;
  if (keep_samples_[static_cast<size_t>(open.name)]) {
    t.self_samples.push_back(static_cast<double>(self));
  }
  if (open.stored >= 0) spans_[static_cast<size_t>(open.stored)].end_ns = now_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

const SpanRecorder::Totals& SpanRecorder::totals(std::string_view name) const {
  static const Totals kEmpty;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return kEmpty;
}

void SpanRecorder::MergeTotals(const SpanRecorder& other) {
  for (size_t i = 0; i < other.names_.size(); ++i) {
    const Totals& from = other.totals_[i];
    Totals& into = totals_[static_cast<size_t>(
        Name(other.names_[i], other.keep_samples_[i]))];
    into.count += from.count;
    into.total_ns += from.total_ns;
    into.self_ns += from.self_ns;
    into.self_samples.insert(into.self_samples.end(),
                             from.self_samples.begin(),
                             from.self_samples.end());
  }
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,batch,parent,start_ns,end_ns\n";
  for (const Stored& s : spans_) {
    out << names_[static_cast<size_t>(s.name)] << "," << s.batch << ","
        << s.parent << "," << s.start_ns << "," << s.end_ns << "\n";
  }
  out << "# spans_dropped=" << spans_dropped_ << "\n";
  return static_cast<bool>(out);
}

namespace {

/// Forwards every sink call to the window operator, each inside a span.
class TracingSink : public streamq::EventSink {
 public:
  TracingSink(streamq::EventSink* inner, SpanRecorder* names)
      : inner_(inner),
        fold_(names == nullptr ? 0 : names->Name(kSpanFold)),
        fire_(names == nullptr ? 0 : names->Name(kSpanFire)),
        late_(names == nullptr ? 0 : names->Name(kSpanLate)) {}

  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
  void set_batch(int64_t batch) { batch_ = batch; }

  void OnEvent(const Event& e) override {
    ScopedSpan span(recorder_, fold_, batch_);
    ++folded_;
    inner_->OnEvent(e);
  }
  void OnEvents(std::span<const Event> events) override {
    ScopedSpan span(recorder_, fold_, batch_);
    folded_ += static_cast<int64_t>(events.size());
    inner_->OnEvents(events);
  }
  void OnEvents(std::span<const Event> events,
                TimestampUs stream_time) override {
    ScopedSpan span(recorder_, fold_, batch_);
    folded_ += static_cast<int64_t>(events.size());
    inner_->OnEvents(events, stream_time);
  }
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
    ScopedSpan span(recorder_, fire_, batch_);
    inner_->OnWatermark(watermark, stream_time);
  }
  void OnKeyedWatermark(int64_t key, TimestampUs watermark,
                        TimestampUs stream_time) override {
    ScopedSpan span(recorder_, fire_, batch_);
    inner_->OnKeyedWatermark(key, watermark, stream_time);
  }
  void OnLateEvent(const Event& e) override {
    ScopedSpan span(recorder_, late_, batch_);
    ++late_events_;
    inner_->OnLateEvent(e);
  }

  int64_t folded() const { return folded_; }
  int64_t late_events() const { return late_events_; }

 private:
  streamq::EventSink* inner_;
  SpanRecorder* recorder_ = nullptr;
  int fold_;
  int fire_;
  int late_;
  int64_t batch_ = -1;
  int64_t folded_ = 0;
  int64_t late_events_ = 0;
};

/// Counts adaptation steps and releases from the handler's hooks.
class HandlerCounts : public streamq::PipelineObserver {
 public:
  void OnAdaptation(const streamq::AdaptationSample&) override {
    ++adaptations;
  }
  void OnHandlerRelease(int64_t released, size_t, TimestampUs) override {
    ++releases;
    released_events += released;
  }

  int64_t adaptations = 0;
  int64_t releases = 0;
  int64_t released_events = 0;
};

}  // namespace

PipelineRun RunHandAssembled(const streamq::ContinuousQuery& query,
                             LapReplay* replay, SpanRecorder* recorder) {
  std::unique_ptr<streamq::DisorderHandler> handler =
      streamq::MakeDisorderHandlerOrDie(query.handler);
  streamq::CollectingResultSink results;
  streamq::WindowedAggregation window(query.window, &results);
  HandlerCounts counts;
  if (recorder != nullptr) handler->set_observer(&counts);
  TracingSink sink(&window, recorder);

  const int run_span = recorder == nullptr ? 0 : recorder->Name(kSpanRun);
  const int replay_span =
      recorder == nullptr ? 0 : recorder->Name(kSpanReplay);
  const int disorder_span =
      recorder == nullptr ? 0 : recorder->Name(kSpanDisorder, true);

  replay->Reset();
  std::vector<Event> batch;
  batch.reserve(kBatchEvents);
  while (replay->next_lap() == 0) {  // Warmup lap: untimed, untraced.
    batch.clear();
    replay->Next(kBatchEvents, &batch);
    handler->OnBatch(batch, &sink);
  }

  const int64_t folded_before = sink.folded();
  const int64_t late_before = sink.late_events();
  const size_t results_before = results.results.size();
  const HandlerCounts counts_before = counts;
  double slack_sum = 0.0;
  int64_t batches = 0;

  const int64_t start = NowNs();
  if (recorder != nullptr) recorder->Begin(run_span, -1, start);
  sink.set_recorder(recorder);
  for (;;) {
    sink.set_batch(batches);
    batch.clear();
    size_t n = 0;
    {
      ScopedSpan span(recorder, replay_span, batches);
      n = replay->Next(kBatchEvents, &batch);
    }
    if (n == 0) break;
    {
      ScopedSpan span(recorder, disorder_span, batches);
      handler->OnBatch(batch, &sink);
    }
    slack_sum += static_cast<double>(handler->current_slack());
    ++batches;
  }
  {
    ScopedSpan span(recorder, disorder_span, batches);
    handler->Flush(&sink);
  }
  const int64_t end = NowNs();
  if (recorder != nullptr) recorder->End(end);

  PipelineRun run;
  run.timed_results =
      static_cast<int64_t>(results.results.size() - results_before);
  run.results = std::move(results.results);
  run.handler_stats = handler->stats();
  run.window_stats = window.stats();
  run.timed_events = replay->timed_events();
  run.timed_wall_s = static_cast<double>(end - start) * 1e-9;
  run.adaptations = counts.adaptations - counts_before.adaptations;
  run.releases = counts.releases - counts_before.releases;
  run.released_events = counts.released_events - counts_before.released_events;
  run.mean_slack_us = batches > 0 ? slack_sum / static_cast<double>(batches)
                                  : 0.0;
  run.folded_events = sink.folded() - folded_before;
  run.late_events = sink.late_events() - late_before;
  return run;
}

namespace {

double PerUnit(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void SetPipelineLayerMetrics(const SpanRecorder& recorder,
                             const PipelineRun& run, RunResult* result) {
  const double events = static_cast<double>(run.timed_events);
  const SpanRecorder::Totals& disorder = recorder.totals(kSpanDisorder);
  result->Set("stream.replay_ns_per_event",
              PerUnit(static_cast<double>(
                          recorder.totals(kSpanReplay).self_ns),
                      events));
  result->Set("disorder.self_ns_per_event",
              PerUnit(static_cast<double>(disorder.self_ns), events));
  result->Set("disorder.batch_self_p99_ns",
              Summarize(disorder.self_samples, 0.99).tail);
  result->Set("disorder.adaptations", static_cast<double>(run.adaptations));
  result->Set("disorder.mean_slack_ms", run.mean_slack_us / 1000.0);
  result->Set("disorder.late_share",
              PerUnit(static_cast<double>(run.handler_stats.events_late),
                      static_cast<double>(run.handler_stats.events_in)));
  result->Set("disorder.release_events_per_call",
              PerUnit(static_cast<double>(run.released_events),
                      static_cast<double>(run.releases)));
  result->Set("disorder.max_buffered",
              static_cast<double>(run.handler_stats.max_buffer_size));
  const double results = static_cast<double>(run.results.size());
  result->Set("window.fold_ns_per_event",
              PerUnit(static_cast<double>(recorder.totals(kSpanFold).total_ns),
                      static_cast<double>(run.folded_events)));
  result->Set("window.fire_ns_per_result",
              PerUnit(static_cast<double>(recorder.totals(kSpanFire).total_ns),
                      static_cast<double>(run.timed_results)));
  result->Set("window.late_ns_per_event",
              PerUnit(static_cast<double>(recorder.totals(kSpanLate).total_ns),
                      static_cast<double>(run.late_events)));
  result->Set("window.results", results);
  result->Set("window.max_live_windows",
              static_cast<double>(run.window_stats.max_live_windows));
}

void PrintBreakdown(const SpanRecorder& recorder) {
  const double root =
      static_cast<double>(recorder.totals(kSpanRun).total_ns);
  std::string line;
  for (std::string_view name :
       {kSpanRun, kSpanReplay, kSpanDisorder, kSpanFold, kSpanFire, kSpanLate,
        kSpanDriver, kSpanFinish, kSpanRtt, kSpanSeal}) {
    const SpanRecorder::Totals& t = recorder.totals(name);
    if (t.count == 0 || root <= 0.0) continue;
    if (!line.empty()) line += " ";
    line += std::string(name) + ":" +
            std::to_string(static_cast<double>(t.self_ns) / root);
  }
  PrintInfo("trace_self_share", line);
}

void ZeroUnsetMetrics(RunResult* result) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (!result->Has(spec.name)) result->Set(spec.name, 0.0);
  }
}

}  // namespace perfbench
