#ifndef STRATLEARN_OBS_JSON_READER_H_
#define STRATLEARN_OBS_JSON_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stratlearn::obs {

/// Minimal JSON DOM shared by the offline report readers (bench_compare
/// over BENCH_*.json, stats_report over time-series files).
/// obs::JsonWriter only writes and obs::IsValidJson only validates;
/// these tools need actual values. Scope-limited on purpose: objects,
/// arrays, strings, numbers, bools, null, no duplicate-key policy.
/// String escapes, \uXXXX and surrogate pairs included, decode to UTF-8
/// (a lone surrogate to U+FFFD), so what JsonWriter wrote reads back
/// byte for byte.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses exactly one JSON value (plus surrounding whitespace) from
/// `text`. Returns false on any syntax error or trailing garbage.
bool ParseJson(const std::string& text, JsonValue* out);

/// Typed field accessors over an object value. Each returns false and
/// leaves `*out` untouched when the key is absent or holds another JSON
/// kind, so a caller that initialises `*out` gets that as the fallback.
/// ReadJsonInt truncates the number toward zero.
bool ReadJsonDouble(const JsonValue& object, std::string_view key,
                    double* out);
bool ReadJsonInt(const JsonValue& object, std::string_view key, int64_t* out);
bool ReadJsonBool(const JsonValue& object, std::string_view key, bool* out);
bool ReadJsonString(const JsonValue& object, std::string_view key,
                    std::string* out);
/// The string at `key`, or "" when absent or not a string.
std::string ReadJsonString(const JsonValue& object, std::string_view key);

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_JSON_READER_H_
