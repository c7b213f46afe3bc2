#ifndef STRATLEARN_OBS_JSON_WRITER_H_
#define STRATLEARN_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stratlearn::obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added): control characters, quote and backslash become \-sequences.
std::string JsonEscape(std::string_view s);

/// Minimal streaming JSON writer used by the metrics snapshot and the
/// trace sinks. Handles commas and nesting; the caller is responsible
/// for pairing Begin/End calls and for putting a Key before each value
/// inside an object. Non-finite doubles are emitted as null (JSON has
/// no Inf/NaN).
///
/// `double_digits` is the %g precision for doubles: the default 12 is
/// compact for human-facing reports; machine formats that must replay
/// losslessly (JSONL traces) use kRoundTripDigits. Numbers are written
/// with std::to_chars (AppendDouble / AppendInt), byte-identical to
/// printf's "%.*g" and "%lld" but without printf or a temporary string,
/// so the trace sinks can serialise an event without allocating once
/// their writer's buffer has grown (see Reset).
class JsonWriter {
 public:
  /// 17 significant digits round-trip any IEEE-754 double exactly.
  static constexpr int kRoundTripDigits = 17;

  explicit JsonWriter(int double_digits = 12)
      : double_digits_(double_digits) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value);
  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(bool value);
  JsonWriter& Null();

  /// Splices `json` — one pre-rendered JSON value — into the stream as
  /// the next value, handling commas like any other Value call. The
  /// caller is responsible for `json` being well formed (IsValidJson).
  JsonWriter& Raw(std::string_view json);

  /// Empties the writer for the next document, keeping the buffer's
  /// capacity: a sink that serialises one line per event reuses one
  /// writer.
  void Reset();

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();

  std::string out_;
  int double_digits_;
  /// One entry per open container: true once the first element has been
  /// written (so the next one needs a comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// Validating recursive-descent parse of one JSON value. Returns true iff
/// `text` is exactly one well-formed JSON value (surrounded by optional
/// whitespace). Used by the JSONL round-trip tests; not a DOM parser.
bool IsValidJson(std::string_view text);

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_JSON_WRITER_H_
