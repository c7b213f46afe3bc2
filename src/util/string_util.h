#ifndef STRATLEARN_UTIL_STRING_UTIL_H_
#define STRATLEARN_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace stratlearn {

/// Splits `input` on `sep`, trimming nothing; empty pieces are kept.
std::vector<std::string> Split(std::string_view input, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `pieces` with `sep` between them.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends `value` formatted exactly as printf("%.*g", digits, value)
/// would ("3.7", "0.012", "1e+20", "-0", "inf", "nan"), without printf
/// or a heap allocation: std::to_chars in chars_format::general with an
/// explicit precision is specified to match %.*g. `digits` must lie in
/// [0, 100]; 0 means 1, as in printf.
void AppendDouble(std::string* out, double value, int digits);

/// Appends the decimal form of `value` (printf "%lld").
void AppendInt(std::string* out, long long value);

/// Formats a double with `digits` significant digits, trimming trailing
/// zeros ("3.7", "0.012"); the same %.*g formatting as AppendDouble.
std::string FormatDouble(double value, int digits = 6);

}  // namespace stratlearn

#endif  // STRATLEARN_UTIL_STRING_UTIL_H_
