#ifndef STRATLEARN_OBS_SINKS_H_
#define STRATLEARN_OBS_SINKS_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace stratlearn::obs {

/// What the file sinks share: a borrowed or owned output stream, one
/// reusable record writer, and the failure and drop latches. The stream
/// is borrowed unless the path constructor is used; `ok()` reports
/// whether it opened.
///
/// I/O failure mid-run (disk full, closed pipe) surfaces exactly one
/// stderr warning and disables the sink; the run itself continues. See
/// `failed()`. Events delivered after Close() (or after a write failure
/// disabled the sink) are dropped, not written: the first drop prints a
/// one-shot stderr warning and every drop is counted.
class StreamSink : public TraceSink {
 public:
  /// The bytes around the records: `header` when the stream opens,
  /// `separator` between records, `terminator` after each record and
  /// `trailer` at Close.
  struct Format {
    const char* name;  // "JSONL" | "Chrome", for the warnings
    int double_digits;
    std::string_view header;
    std::string_view separator;
    std::string_view terminator;
    std::string_view trailer;
  };

  ~StreamSink() override;

  bool ok() const { return out_ != nullptr && out_->good(); }
  /// True once a mid-run write failed and the sink disabled itself.
  bool failed() const { return failed_; }
  int64_t events_dropped() const { return events_dropped_; }
  /// Optional borrowed counter (the CLI wires
  /// "obs.trace_events_dropped") bumped once per dropped event.
  void set_drop_counter(Counter* counter) { drop_counter_ = counter; }

  void Flush() override;
  /// Writes the format's trailer (unless the stream already failed) and
  /// flushes. Idempotent; the destructor calls it.
  void Close() override;

 protected:
  StreamSink(std::ostream* out, const Format& format);
  StreamSink(const std::string& path, const Format& format);

  /// Resets the writer for the next record; EmitRecord writes what the
  /// caller serialised into it. One writer per sink, so a steady stream
  /// of events reuses one buffer.
  JsonWriter& StartRecord();
  void EmitRecord();

 private:
  void Write(std::string_view bytes);

  Format format_;
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

/// Writes one JSON object per line (JSONL): a "type" discriminator, then
/// the event's fields, so a stream can be filtered with grep/jq.
class JsonlSink final : public GenericSink<JsonlSink, StreamSink> {
 public:
  /// Borrow an open stream (e.g. a std::ostringstream in tests).
  explicit JsonlSink(std::ostream* out);
  /// Own a file stream; `ok()` reports whether it opened.
  explicit JsonlSink(const std::string& path);

  /// Defined and instantiated for every event type in sinks.cc.
  template <typename Event>
  void Handle(const Event& e);
};

/// Emits a chrome://tracing / Perfetto-loadable JSON array. Queries
/// become complete spans ("ph":"X"), quota progress becomes a counter
/// track ("ph":"C"), and every event with a kChrome category becomes an
/// instant event ("ph":"i") whose args are its fields. QueryStart and
/// ArcAttempt events are intentionally dropped: at one span per query
/// they already dominate file size, and the per-arc detail belongs in
/// JSONL; they are not counted in events_dropped(). The closing "]" is
/// written exactly once, by Close() or the destructor (RAII), so a trace
/// is loadable even when the owner exits early; Flush() alone never
/// finalises the array, and a failed sink never writes it.
class ChromeTraceSink final : public GenericSink<ChromeTraceSink, StreamSink> {
 public:
  explicit ChromeTraceSink(std::ostream* out);
  explicit ChromeTraceSink(const std::string& path);

  void Handle(const QueryEndEvent& e);
  void Handle(const QuotaProgressEvent& e);
  /// The instant event, or nothing for an event without a kChrome
  /// category.
  template <typename Event>
  void Handle(const Event& e);
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_SINKS_H_
