#include "obs/sinks.h"

#include <cstdio>

#include "obs/event_codec.h"

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

constexpr StreamSink::Format kJsonl{"JSONL", JsonWriter::kRoundTripDigits,
                                    "", "", "\n", ""};
constexpr StreamSink::Format kChrome{"Chrome", 12, "[\n", ",\n", "",
                                     "\n]\n"};

}  // namespace

StreamSink::StreamSink(std::ostream* out, const Format& format)
    : format_(format), writer_(format.double_digits), out_(out) {
  if (ok()) Write(format_.header);
}

StreamSink::StreamSink(const std::string& path, const Format& format)
    : format_(format),
      writer_(format.double_digits),
      owned_(std::make_unique<std::ofstream>(path)),
      out_(owned_.get()) {
  if (ok()) Write(format_.header);
}

StreamSink::~StreamSink() { Close(); }

void StreamSink::Write(std::string_view bytes) {
  if (!bytes.empty()) {
    out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

JsonWriter& StreamSink::StartRecord() {
  writer_.Reset();
  return writer_;
}

void StreamSink::EmitRecord() {
  if (out_ == nullptr) return;
  if (closed_ || failed_) {
    ++events_dropped_;
    if (drop_counter_ != nullptr) drop_counter_->Increment();
    if (!warned_dropped_) {
      warned_dropped_ = true;
      WarnEventDropped(format_.name);
    }
    return;
  }
  if (wrote_any_) Write(format_.separator);
  Write(writer_.str());
  Write(format_.terminator);
  wrote_any_ = true;
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed(format_.name);
  }
}

void StreamSink::Flush() {
  if (out_ == nullptr || failed_) return;
  out_->flush();
  if (!out_->good()) {
    failed_ = true;
    WarnWriteFailed(format_.name);
  }
}

void StreamSink::Close() {
  if (out_ == nullptr) return;
  if (!closed_) {
    // A failed sink's stream is already broken; appending the trailer
    // would just error again, so only a healthy stream gets finalised.
    if (!failed_) Write(format_.trailer);
    closed_ = true;
  }
  Flush();
}

JsonlSink::JsonlSink(std::ostream* out) : GenericSink(out, kJsonl) {}

JsonlSink::JsonlSink(const std::string& path) : GenericSink(path, kJsonl) {}

template <typename Event>
void JsonlSink::Handle(const Event& e) {
  JsonWriter& w = StartRecord();
  w.BeginObject();
  w.Key("type").Value(Event::kType);
  WriteEventFields(w, e);
  w.EndObject();
  EmitRecord();
}

ChromeTraceSink::ChromeTraceSink(std::ostream* out)
    : GenericSink(out, kChrome) {}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : GenericSink(path, kChrome) {}

void ChromeTraceSink::Handle(const QueryEndEvent& e) {
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
  EmitRecord();
}

void ChromeTraceSink::Handle(const QuotaProgressEvent& e) {
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
  EmitRecord();
}

template <typename Event>
void ChromeTraceSink::Handle(const Event& e) {
  if constexpr (!Event::kChrome.cat.empty()) {
    JsonWriter& w = StartRecord();
    w.BeginObject();
    w.Key("name").Value(Event::kType);
    w.Key("cat").Value(Event::kChrome.cat);
    w.Key("ph").Value("i");
    w.Key("s").Value(Event::kChrome.scope);
    w.Key("ts").Value(e.t_us);
    w.Key("pid").Value(int64_t{1});
    w.Key("tid").Value(int64_t{1});
    w.Key("args").BeginObject();
    WriteEventFields<1>(w, e);
    w.EndObject();
    w.EndObject();
    EmitRecord();
  }
}

#define STRATLEARN_OBS_INSTANTIATE(Name)                            \
  template void JsonlSink::Handle<Name##Event>(const Name##Event&); \
  template void ChromeTraceSink::Handle<Name##Event>(const Name##Event&);
STRATLEARN_OBS_EVENTS(STRATLEARN_OBS_INSTANTIATE)
#undef STRATLEARN_OBS_INSTANTIATE

}  // namespace stratlearn::obs
