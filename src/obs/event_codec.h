#ifndef STRATLEARN_OBS_EVENT_CODEC_H_
#define STRATLEARN_OBS_EVENT_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "obs/events.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"

namespace stratlearn::obs {

/// JSON codec driven by each event's Fields() list (see events.h). The
/// lists are expanded at compile time, so WriteEventFields compiles to
/// the same Key(...).Value(...) sequence a hand-written writer would.

namespace codec_internal {

/// Integral members widen to int64_t (`arc` is uint32_t, `experiment`
/// int), so every id goes through JsonWriter::Value(int64_t).
template <typename T>
void WriteValue(JsonWriter& w, const T& value) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>) {
    w.Value(value);
  } else if constexpr (std::is_integral_v<T>) {
    w.Value(static_cast<int64_t>(value));
  } else {
    static_assert(std::is_same_v<T, std::string>);
    w.Value(std::string_view(value));
  }
}

/// Leaves `*out` untouched when the key is missing or holds another
/// JSON kind, so a decoded event keeps the member's default.
template <typename T>
void ReadValue(const JsonValue& object, std::string_view key, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    ReadJsonBool(object, key, out);
  } else if constexpr (std::is_same_v<T, double>) {
    ReadJsonDouble(object, key, out);
  } else if constexpr (std::is_integral_v<T>) {
    int64_t value = 0;
    if (ReadJsonInt(object, key, &value)) *out = static_cast<T>(value);
  } else {
    static_assert(std::is_same_v<T, std::string>);
    ReadJsonString(object, key, out);
  }
}

}  // namespace codec_internal

/// Writes the fields of `e` from the kFirst-th on as key/value pairs
/// into the JSON object `w` has open. Chrome instant events pass 1: their
/// args are every field but the leading t_us, which is their "ts".
template <size_t kFirst = 0, typename Event>
void WriteEventFields(JsonWriter& w, const Event& e) {
  static constexpr auto kFields = Event::Fields();
  static_assert(kFirst == 0 || std::get<0>(kFields).key == "t_us");
  constexpr size_t kCount = std::tuple_size_v<decltype(Event::Fields())>;
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((w.Key(std::get<kFirst + I>(kFields).key),
      codec_internal::WriteValue(w, e.*std::get<kFirst + I>(kFields).member)),
     ...);
  }(std::make_index_sequence<kCount - kFirst>{});
}

/// Decodes the fields of `*e` from a parsed JSON object.
template <typename Event>
void ReadEventFields(const JsonValue& object, Event* e) {
  std::apply(
      [&](const auto&... field) {
        (codec_internal::ReadValue(object, field.key, &(e->*field.member)),
         ...);
      },
      Event::Fields());
}

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_EVENT_CODEC_H_
