#include "util/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "util/check.h"

namespace stratlearn {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

constexpr int kMaxFormatDigits = 100;

}  // namespace

void AppendDouble(std::string* out, double value, int digits) {
  STRATLEARN_CHECK(digits >= 0 && digits <= kMaxFormatDigits);
  // %.*g never needs more than sign, `digits` digits, a point and a
  // five-character exponent ("e-308").
  char buf[kMaxFormatDigits + 8];
  std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, digits);
  STRATLEARN_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

void AppendInt(std::string* out, long long value) {
  char buf[24];  // "-9223372036854775808" is 20 characters
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

std::string FormatDouble(double value, int digits) {
  std::string s;
  AppendDouble(&s, value, digits);
  return s;
}

}  // namespace stratlearn
