#include "obs/trace_reader.h"

#include <cstdint>
#include <string>

#include "obs/event_codec.h"
#include "obs/json_reader.h"
#include "util/string_util.h"

namespace stratlearn::obs {

namespace {

/// Decodes one event of type Event and hands it to the sink.
template <typename Event>
void Replay(const JsonValue& fields, TraceSink* sink) {
  Event e;
  ReadEventFields(fields, &e);
  Deliver(*sink, e);
}

struct Decoder {
  std::string_view type;
  void (*replay)(const JsonValue&, TraceSink*);
};

constexpr Decoder kDecoders[] = {
#define STRATLEARN_OBS_DECODER(Name) {Name##Event::kType, &Replay<Name##Event>},
    STRATLEARN_OBS_EVENTS(STRATLEARN_OBS_DECODER)
#undef STRATLEARN_OBS_DECODER
};

}  // namespace

Status TraceReader::ReplayLine(std::string_view line) {
  ++line_number_;
  std::string_view trimmed = Trim(line);
  if (trimmed.empty()) return Status::OK();

  JsonValue value;
  if (!ParseJson(std::string(trimmed), &value)) {
    return Status::InvalidArgument(
        StrFormat("line %lld: malformed JSON",
                  static_cast<long long>(line_number_)));
  }
  if (value.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        StrFormat("line %lld: event is not a JSON object",
                  static_cast<long long>(line_number_)));
  }
  std::string type = ReadJsonString(value, "type");
  if (type.empty()) {
    return Status::InvalidArgument(StrFormat(
        "line %lld: event has no \"type\"",
        static_cast<long long>(line_number_)));
  }
  for (const Decoder& decoder : kDecoders) {
    if (decoder.type == type) {
      decoder.replay(value, sink_);
      ++events_;
      return Status::OK();
    }
  }
  ++skipped_;
  return Status::OK();
}

Status TraceReader::ReplayStream(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    Status status = ReplayLine(line);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace stratlearn::obs
