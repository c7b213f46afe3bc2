#include "obs/json_writer.h"

#include <cctype>
#include <cmath>

#include "util/string_util.h"

namespace stratlearn::obs {

namespace {

/// The escape sequence for byte `c`, or nullptr when `c` is copied as
/// is. Only quote, backslash and the control characters 0x00-0x1f are
/// escaped; every other byte (DEL and non-ASCII included) passes
/// through.
const char* EscapeFor(unsigned char c) {
  static constexpr const char* kControl[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\b",     "\\t",     "\\n",     "\\u000b",
      "\\f",     "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  if (c < 0x20) return kControl[c];
  if (c == '"') return "\\\"";
  if (c == '\\') return "\\\\";
  return nullptr;
}

/// Appends JsonEscape(s) to `out` in place, copying runs of bytes that
/// need no escape in one go.
void AppendJsonEscaped(std::string* out, std::string_view s) {
  size_t run = 0;  // start of the pending run of unescaped bytes
  for (size_t i = 0; i < s.size(); ++i) {
    const char* esc = EscapeFor(static_cast<unsigned char>(s[i]));
    if (esc == nullptr) continue;
    out->append(s.data() + run, i - run);
    out->append(esc);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

void JsonWriter::Reset() {
  out_.clear();
  has_element_.clear();
  pending_key_ = false;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already wrote its comma
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  out_ += '"';
  AppendJsonEscaped(&out_, key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendJsonEscaped(&out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const char* value) {
  return Value(std::string_view(value));
}

JsonWriter& JsonWriter::Value(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
  } else {
    AppendDouble(&out_, value, double_digits_);
  }
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  BeforeValue();
  AppendInt(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

namespace {

/// Cursor for the validating parser.
struct Cursor {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }
  bool Consume(char c) {
    if (AtEnd() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  void SkipSpace() {
    while (!AtEnd()) {
      char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }
  bool ConsumeLiteral(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }
};

bool ParseValue(Cursor& c, int depth);

bool ParseString(Cursor& c) {
  if (!c.Consume('"')) return false;
  while (!c.AtEnd()) {
    char ch = c.text[c.pos++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) return false;
    if (ch == '\\') {
      if (c.AtEnd()) return false;
      char esc = c.text[c.pos++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          break;
        case 'u': {
          for (int i = 0; i < 4; ++i) {
            if (c.AtEnd() || !std::isxdigit(
                                 static_cast<unsigned char>(c.Peek()))) {
              return false;
            }
            ++c.pos;
          }
          break;
        }
        default:
          return false;
      }
    }
  }
  return false;  // unterminated
}

bool ParseNumber(Cursor& c) {
  size_t start = c.pos;
  c.Consume('-');
  if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
    return false;
  }
  if (c.Peek() == '0') {
    ++c.pos;
  } else {
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.pos;
    }
  }
  if (c.Consume('.')) {
    if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      return false;
    }
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.pos;
    }
  }
  if (!c.AtEnd() && (c.Peek() == 'e' || c.Peek() == 'E')) {
    ++c.pos;
    if (!c.AtEnd() && (c.Peek() == '+' || c.Peek() == '-')) ++c.pos;
    if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      return false;
    }
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.pos;
    }
  }
  return c.pos > start;
}

bool ParseObject(Cursor& c, int depth) {
  if (!c.Consume('{')) return false;
  c.SkipSpace();
  if (c.Consume('}')) return true;
  while (true) {
    c.SkipSpace();
    if (!ParseString(c)) return false;
    c.SkipSpace();
    if (!c.Consume(':')) return false;
    if (!ParseValue(c, depth + 1)) return false;
    c.SkipSpace();
    if (c.Consume('}')) return true;
    if (!c.Consume(',')) return false;
  }
}

bool ParseArray(Cursor& c, int depth) {
  if (!c.Consume('[')) return false;
  c.SkipSpace();
  if (c.Consume(']')) return true;
  while (true) {
    if (!ParseValue(c, depth + 1)) return false;
    c.SkipSpace();
    if (c.Consume(']')) return true;
    if (!c.Consume(',')) return false;
  }
}

bool ParseValue(Cursor& c, int depth) {
  if (depth > 256) return false;
  c.SkipSpace();
  if (c.AtEnd()) return false;
  switch (c.Peek()) {
    case '{':
      return ParseObject(c, depth);
    case '[':
      return ParseArray(c, depth);
    case '"':
      return ParseString(c);
    case 't':
      return c.ConsumeLiteral("true");
    case 'f':
      return c.ConsumeLiteral("false");
    case 'n':
      return c.ConsumeLiteral("null");
    default:
      return ParseNumber(c);
  }
}

}  // namespace

bool IsValidJson(std::string_view text) {
  Cursor c{text};
  if (!ParseValue(c, 0)) return false;
  c.SkipSpace();
  return c.AtEnd();
}

}  // namespace stratlearn::obs
