#ifndef STRATLEARN_OBS_SINKS_H_
#define STRATLEARN_OBS_SINKS_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace stratlearn::obs {

/// Writes one JSON object per line (JSONL). Every event type is
/// serialized with a "type" discriminator plus the event's fields, so a
/// stream can be filtered with grep/jq. The stream is borrowed unless
/// the path constructor is used.
///
/// I/O failure mid-run (disk full, closed pipe) surfaces exactly one
/// stderr warning and disables the sink; the run itself continues. See
/// `failed()`.
class JsonlSink final : public TraceSink {
 public:
  /// Borrow an open stream (e.g. a std::ostringstream in tests).
  explicit JsonlSink(std::ostream* out);
  /// Own a file stream; `ok()` reports whether it opened.
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;

  bool ok() const { return out_ != nullptr && out_->good(); }
  /// True once a mid-run write failed and the sink disabled itself.
  bool failed() const { return failed_; }
  /// Events delivered after Close() (or after a write failure disabled
  /// the sink) are dropped, not written. The first drop prints a
  /// one-shot stderr warning; every drop is counted here.
  int64_t events_dropped() const { return events_dropped_; }
  /// Optional borrowed counter (the CLI wires
  /// "obs.trace_events_dropped") bumped once per dropped event.
  void set_drop_counter(Counter* counter) { drop_counter_ = counter; }

  void OnQueryStart(const QueryStartEvent& e) override;
  void OnQueryEnd(const QueryEndEvent& e) override;
  void OnArcAttempt(const ArcAttemptEvent& e) override;
  void OnClimbMove(const ClimbMoveEvent& e) override;
  void OnSequentialTest(const SequentialTestEvent& e) override;
  void OnQuotaProgress(const QuotaProgressEvent& e) override;
  void OnPaloStop(const PaloStopEvent& e) override;
  void OnRetry(const RetryEvent& e) override;
  void OnBreaker(const BreakerEvent& e) override;
  void OnDegraded(const DegradedEvent& e) override;
  void OnDrift(const DriftEvent& e) override;
  void OnAlert(const AlertEvent& e) override;
  void OnDecisionCertificate(const DecisionCertificateEvent& e) override;
  void OnRecovery(const RecoveryEvent& e) override;
  void Flush() override;
  void Close() override;

 private:
  /// Resets writer_ for the next line; WriteLine emits what the caller
  /// serialised into it. One writer per sink, so a steady stream of
  /// events reuses one buffer.
  JsonWriter& StartLine();
  void WriteLine();

  JsonWriter writer_{JsonWriter::kRoundTripDigits};
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  bool closed_ = false;
  bool failed_ = false;
  bool warned_dropped_ = false;
  int64_t events_dropped_ = 0;
  Counter* drop_counter_ = nullptr;
};

/// Emits a chrome://tracing / Perfetto-loadable JSON array. Queries
/// become complete spans ("ph":"X"), climb moves / sequential tests /
/// PALO stops / retries / breaker transitions / degradations become
/// instant events ("ph":"i"), and quota progress becomes a counter
/// track ("ph":"C"). ArcAttempt events are intentionally dropped: at
/// one span per query they already dominate file size, and the per-arc
/// detail belongs in JSONL. The closing "]" is written exactly once, by
/// Close() or the destructor (RAII), so a trace is loadable even when
/// the owner exits early; Flush() alone never finalises the array.
///
/// Mid-run I/O failure disables the sink after one stderr warning, like
/// JsonlSink; a failed sink never writes the closing "]" (the stream is
/// already broken).
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream* out);
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  bool ok() const { return out_ != nullptr && out_->good(); }
  bool failed() const { return failed_; }
  /// See JsonlSink::events_dropped(): events delivered after Close()
  /// (or a write failure) with a one-shot warning and a running count.
  /// ArcAttempt events are excluded — dropping those is this format's
  /// documented design, not event loss.
  int64_t events_dropped() const { return events_dropped_; }
  void set_drop_counter(Counter* counter) { drop_counter_ = counter; }

  void OnQueryEnd(const QueryEndEvent& e) override;
  void OnClimbMove(const ClimbMoveEvent& e) override;
  void OnSequentialTest(const SequentialTestEvent& e) override;
  void OnQuotaProgress(const QuotaProgressEvent& e) override;
  void OnPaloStop(const PaloStopEvent& e) override;
  void OnRetry(const RetryEvent& e) override;
  void OnBreaker(const BreakerEvent& e) override;
  void OnDegraded(const DegradedEvent& e) override;
  void OnDrift(const DriftEvent& e) override;
  void OnAlert(const AlertEvent& e) override;
  void OnDecisionCertificate(const DecisionCertificateEvent& e) override;
  void OnRecovery(const RecoveryEvent& e) override;
  void Flush() override;
  void Close() override;

 private:
  /// Same buffer reuse as JsonlSink::StartLine / WriteLine.
  JsonWriter& StartRecord();
  void WriteRecord();

  JsonWriter writer_;
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  bool wrote_any_ = false;
  bool closed_ = false;
  bool failed_ = false;
  bool warned_dropped_ = false;
  int64_t events_dropped_ = 0;
  Counter* drop_counter_ = nullptr;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_SINKS_H_
