// Differential oracle for JSON number and string formatting: the
// printf-based formatters JsonWriter and FormatDouble used before they
// moved to std::to_chars, copied unchanged apart from living in a
// test-only namespace. The library's output must match these byte for
// byte at every precision the repository formats with.
#ifndef STRATLEARN_TESTS_JSON_ORACLE_H_
#define STRATLEARN_TESTS_JSON_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/string_util.h"

namespace stratlearn::oracle {

/// The original FormatDouble.
inline std::string FormatDouble(double value, int digits) {
  return StrFormat("%.*g", digits, value);
}

/// The original JsonWriter::Value(double) body: null for non-finite.
inline std::string JsonDouble(double value, int digits) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.*g", digits, value);
}

/// The original JsonWriter::Value(int64_t) body.
inline std::string JsonInt(int64_t value) {
  return StrFormat("%lld", static_cast<long long>(value));
}

/// The original JsonEscape.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace stratlearn::oracle

#endif  // STRATLEARN_TESTS_JSON_ORACLE_H_
