#include "obs/sinks.h"

#include <cstdio>

#include "obs/json_writer.h"

namespace stratlearn::obs {

namespace {

/// One warning per sink instance when a mid-run write fails; the caller
/// keeps running with the sink disabled rather than crashing or, worse,
/// silently losing an unbounded suffix of the trace.
void WarnWriteFailed(const char* what) {
  std::fprintf(stderr,
               "warning: %s trace sink write failed (disk full or closed "
               "pipe?); disabling further trace output for this run\n",
               what);
}

/// Shared field spellings so JSONL and Chrome args agree.
void CommonClimbFields(JsonWriter& w, const ClimbMoveEvent& e) {
  w.Key("learner").Value(e.learner);
  w.Key("move_index").Value(e.move_index);
  w.Key("at_context").Value(e.at_context);
  w.Key("samples_used").Value(e.samples_used);
  w.Key("swap").Value(e.swap);
  w.Key("delta_sum").Value(e.delta_sum);
  w.Key("threshold").Value(e.threshold);
  w.Key("margin").Value(e.margin);
  w.Key("delta_spent").Value(e.delta_spent);
}

void CommonDriftFields(JsonWriter& w, const DriftEvent& e) {
  w.Key("detector").Value(e.detector);
  w.Key("state").Value(e.state);
  w.Key("arc").Value(e.arc);
  w.Key("counter").Value(e.counter);
  w.Key("statistic").Value(e.statistic);
  w.Key("reference").Value(e.reference);
  w.Key("threshold").Value(e.threshold);
  w.Key("window").Value(e.window);
  w.Key("window_start_us").Value(e.window_start_us);
  w.Key("window_end_us").Value(e.window_end_us);
}

void CommonAlertFields(JsonWriter& w, const AlertEvent& e) {
  w.Key("rule").Value(e.rule);
  w.Key("state").Value(e.state);
  w.Key("severity").Value(e.severity);
  w.Key("metric").Value(e.metric);
  w.Key("value").Value(e.value);
  w.Key("threshold").Value(e.threshold);
  w.Key("window").Value(e.window);
  w.Key("for_windows").Value(e.for_windows);
}

void CommonTestFields(JsonWriter& w, const SequentialTestEvent& e) {
  w.Key("learner").Value(e.learner);
  w.Key("at_context").Value(e.at_context);
  w.Key("samples").Value(e.samples);
  w.Key("trial_count").Value(e.trial_count);
  w.Key("best_neighbor").Value(e.best_neighbor);
  w.Key("best_delta_sum").Value(e.best_delta_sum);
  w.Key("best_threshold").Value(e.best_threshold);
  w.Key("fired").Value(e.fired);
}

void CommonCertificateFields(JsonWriter& w,
                             const DecisionCertificateEvent& e) {
  w.Key("learner").Value(e.learner);
  w.Key("decision").Value(e.decision);
  w.Key("verdict").Value(e.verdict);
  w.Key("at_context").Value(e.at_context);
  w.Key("samples").Value(e.samples);
  w.Key("trials").Value(e.trials);
  w.Key("subject").Value(e.subject);
  w.Key("mean").Value(e.mean);
  w.Key("delta_sum").Value(e.delta_sum);
  w.Key("threshold").Value(e.threshold);
  w.Key("margin").Value(e.margin);
  w.Key("range").Value(e.range);
  w.Key("epsilon_n").Value(e.epsilon_n);
  w.Key("delta_step").Value(e.delta_step);
  w.Key("delta_budget").Value(e.delta_budget);
  w.Key("delta_spent_total").Value(e.delta_spent_total);
  w.Key("bound_samples").Value(e.bound_samples);
  w.Key("epsilon").Value(e.epsilon);
}

void CommonRecoveryFields(JsonWriter& w, const RecoveryEvent& e) {
  w.Key("rule").Value(e.rule);
  w.Key("trigger").Value(e.trigger);
  w.Key("action").Value(e.action);
  w.Key("outcome").Value(e.outcome);
  w.Key("arc").Value(e.arc);
  w.Key("window").Value(e.window);
  w.Key("matched").Value(e.matched);
  w.Key("statistic").Value(e.statistic);
  w.Key("reference").Value(e.reference);
  w.Key("threshold").Value(e.threshold);
}

/// One warning per sink instance the first time an event arrives after
/// Close() (or after a failure disabled the sink) and has to be
/// dropped. Before this existed the loss was entirely silent.
void WarnEventDropped(const char* what) {
  std::fprintf(stderr,
               "warning: %s trace sink dropped an event delivered after "
               "Close(); further drops are counted in "
               "obs.trace_events_dropped but not reported individually\n",
               what);
}

}  // namespace

JsonlSink::JsonlSink(std::ostream* out) : out_(out) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {}

JsonlSink::~JsonlSink() { Close(); }

JsonWriter& JsonlSink::StartLine() {
  writer_.Reset();
  return writer_;
}

void JsonlSink::WriteLine() {
  if (out_ == nullptr) return;
  if (closed_ || failed_) {
    ++events_dropped_;
    if (drop_counter_ != nullptr) drop_counter_->Increment();
    if (!warned_dropped_) {
      warned_dropped_ = true;
      WarnEventDropped("JSONL");
    }
    return;
  }
  const std::string& json = writer_.str();
  out_->write(json.data(), static_cast<std::streamsize>(json.size()));
  out_->put('\n');
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed("JSONL");
  }
}

void JsonlSink::Flush() {
  if (out_ == nullptr || failed_) return;
  out_->flush();
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed("JSONL");
  }
}

void JsonlSink::Close() {
  // JSONL needs no terminator; Close just seals the stream against
  // late events and flushes.
  closed_ = true;
  Flush();
}

void JsonlSink::OnQueryStart(const QueryStartEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("query_start");
  w.Key("t_us").Value(e.t_us);
  w.Key("query_index").Value(e.query_index);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnQueryEnd(const QueryEndEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("query_end");
  w.Key("t_us").Value(e.t_us);
  w.Key("query_index").Value(e.query_index);
  w.Key("duration_us").Value(e.duration_us);
  w.Key("cost").Value(e.cost);
  w.Key("attempts").Value(e.attempts);
  w.Key("successes").Value(e.successes);
  w.Key("success").Value(e.success);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnArcAttempt(const ArcAttemptEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("arc_attempt");
  w.Key("t_us").Value(e.t_us);
  w.Key("query_index").Value(e.query_index);
  w.Key("arc").Value(static_cast<int64_t>(e.arc));
  w.Key("experiment").Value(static_cast<int64_t>(e.experiment));
  w.Key("unblocked").Value(e.unblocked);
  w.Key("cost").Value(e.cost);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnClimbMove(const ClimbMoveEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("climb_move");
  w.Key("t_us").Value(e.t_us);
  CommonClimbFields(w, e);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnSequentialTest(const SequentialTestEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("sequential_test");
  w.Key("t_us").Value(e.t_us);
  CommonTestFields(w, e);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnQuotaProgress(const QuotaProgressEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("quota_progress");
  w.Key("t_us").Value(e.t_us);
  w.Key("context").Value(e.context);
  w.Key("aimed_experiment").Value(static_cast<int64_t>(e.aimed_experiment));
  w.Key("reached").Value(e.reached);
  w.Key("remaining_max").Value(e.remaining_max);
  w.Key("remaining_total").Value(e.remaining_total);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnPaloStop(const PaloStopEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("palo_stop");
  w.Key("t_us").Value(e.t_us);
  w.Key("at_context").Value(e.at_context);
  w.Key("moves").Value(e.moves);
  w.Key("epsilon").Value(e.epsilon);
  w.Key("worst_certificate").Value(e.worst_certificate);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnRetry(const RetryEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("retry");
  w.Key("t_us").Value(e.t_us);
  w.Key("query_index").Value(e.query_index);
  w.Key("arc").Value(static_cast<int64_t>(e.arc));
  w.Key("experiment").Value(static_cast<int64_t>(e.experiment));
  w.Key("fault").Value(e.fault);
  w.Key("attempt").Value(e.attempt);
  w.Key("backoff_cost").Value(e.backoff_cost);
  w.Key("gave_up").Value(e.gave_up);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnBreaker(const BreakerEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("breaker");
  w.Key("t_us").Value(e.t_us);
  w.Key("query_index").Value(e.query_index);
  w.Key("arc").Value(static_cast<int64_t>(e.arc));
  w.Key("experiment").Value(static_cast<int64_t>(e.experiment));
  w.Key("state").Value(e.state);
  w.Key("consecutive_failures").Value(e.consecutive_failures);
  w.Key("cooldown_until").Value(e.cooldown_until);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnDegraded(const DegradedEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("degraded");
  w.Key("t_us").Value(e.t_us);
  w.Key("query_index").Value(e.query_index);
  w.Key("cost").Value(e.cost);
  w.Key("budget").Value(e.budget);
  w.Key("attempts").Value(e.attempts);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnDrift(const DriftEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("drift");
  w.Key("t_us").Value(e.t_us);
  CommonDriftFields(w, e);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnAlert(const AlertEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("alert");
  w.Key("t_us").Value(e.t_us);
  CommonAlertFields(w, e);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnDecisionCertificate(const DecisionCertificateEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("decision_certificate");
  w.Key("t_us").Value(e.t_us);
  CommonCertificateFields(w, e);
  w.EndObject();
  WriteLine();
}

void JsonlSink::OnRecovery(const RecoveryEvent& e) {
  JsonWriter& w = StartLine();
  w.BeginObject();
  w.Key("type").Value("recovery");
  w.Key("t_us").Value(e.t_us);
  CommonRecoveryFields(w, e);
  w.EndObject();
  WriteLine();
}

ChromeTraceSink::ChromeTraceSink(std::ostream* out) : out_(out) {
  if (out_ != nullptr) *out_ << "[\n";
}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {
  if (ok()) *out_ << "[\n";
}

ChromeTraceSink::~ChromeTraceSink() { Close(); }

JsonWriter& ChromeTraceSink::StartRecord() {
  writer_.Reset();
  return writer_;
}

void ChromeTraceSink::WriteRecord() {
  if (out_ == nullptr) return;
  if (closed_ || failed_) {
    ++events_dropped_;
    if (drop_counter_ != nullptr) drop_counter_->Increment();
    if (!warned_dropped_) {
      warned_dropped_ = true;
      WarnEventDropped("Chrome");
    }
    return;
  }
  if (wrote_any_) out_->write(",\n", 2);
  const std::string& json = writer_.str();
  out_->write(json.data(), static_cast<std::streamsize>(json.size()));
  wrote_any_ = true;
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed("Chrome");
  }
}

void ChromeTraceSink::Flush() {
  if (out_ == nullptr || failed_) return;
  out_->flush();
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed("Chrome");
  }
}

void ChromeTraceSink::Close() {
  if (out_ == nullptr) return;
  if (!closed_) {
    // A failed sink's stream is already broken; appending "]" would just
    // error again, so only a healthy stream gets finalised.
    if (!failed_) *out_ << "\n]\n";
    closed_ = true;
  }
  if (!failed_) out_->flush();
}

void ChromeTraceSink::OnQueryEnd(const QueryEndEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("query");
  w.Key("cat").Value("qp");
  w.Key("ph").Value("X");
  w.Key("ts").Value(e.t_us);
  w.Key("dur").Value(e.duration_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  w.Key("query_index").Value(e.query_index);
  w.Key("cost").Value(e.cost);
  w.Key("attempts").Value(e.attempts);
  w.Key("success").Value(e.success);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnClimbMove(const ClimbMoveEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("climb_move");
  w.Key("cat").Value("learner");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  CommonClimbFields(w, e);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnSequentialTest(const SequentialTestEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("sequential_test");
  w.Key("cat").Value("learner");
  w.Key("ph").Value("i");
  w.Key("s").Value("t");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  CommonTestFields(w, e);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnQuotaProgress(const QuotaProgressEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("quota_remaining");
  w.Key("cat").Value("qpa");
  w.Key("ph").Value("C");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("args").BeginObject();
  w.Key("total").Value(e.remaining_total);
  w.Key("max").Value(e.remaining_max);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnPaloStop(const PaloStopEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("palo_stop");
  w.Key("cat").Value("learner");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  w.Key("at_context").Value(e.at_context);
  w.Key("moves").Value(e.moves);
  w.Key("epsilon").Value(e.epsilon);
  w.Key("worst_certificate").Value(e.worst_certificate);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnRetry(const RetryEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("retry");
  w.Key("cat").Value("robust");
  w.Key("ph").Value("i");
  w.Key("s").Value("t");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  w.Key("query_index").Value(e.query_index);
  w.Key("arc").Value(static_cast<int64_t>(e.arc));
  w.Key("experiment").Value(static_cast<int64_t>(e.experiment));
  w.Key("fault").Value(e.fault);
  w.Key("attempt").Value(e.attempt);
  w.Key("backoff_cost").Value(e.backoff_cost);
  w.Key("gave_up").Value(e.gave_up);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnBreaker(const BreakerEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("breaker");
  w.Key("cat").Value("robust");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  w.Key("query_index").Value(e.query_index);
  w.Key("arc").Value(static_cast<int64_t>(e.arc));
  w.Key("experiment").Value(static_cast<int64_t>(e.experiment));
  w.Key("state").Value(e.state);
  w.Key("consecutive_failures").Value(e.consecutive_failures);
  w.Key("cooldown_until").Value(e.cooldown_until);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnDegraded(const DegradedEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("degraded");
  w.Key("cat").Value("robust");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  w.Key("query_index").Value(e.query_index);
  w.Key("cost").Value(e.cost);
  w.Key("budget").Value(e.budget);
  w.Key("attempts").Value(e.attempts);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnDrift(const DriftEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("drift");
  w.Key("cat").Value("health");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  CommonDriftFields(w, e);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnAlert(const AlertEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("alert");
  w.Key("cat").Value("health");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  CommonAlertFields(w, e);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnDecisionCertificate(
    const DecisionCertificateEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("decision_certificate");
  w.Key("cat").Value("audit");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  CommonCertificateFields(w, e);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

void ChromeTraceSink::OnRecovery(const RecoveryEvent& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("name").Value("recovery");
  w.Key("cat").Value("health");
  w.Key("ph").Value("i");
  w.Key("s").Value("g");
  w.Key("ts").Value(e.t_us);
  w.Key("pid").Value(int64_t{1});
  w.Key("tid").Value(int64_t{1});
  w.Key("args").BeginObject();
  CommonRecoveryFields(w, e);
  w.EndObject();
  w.EndObject();
  WriteRecord();
}

}  // namespace stratlearn::obs
