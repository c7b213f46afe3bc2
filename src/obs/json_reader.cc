#include "obs/json_reader.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace stratlearn::obs {
namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t n = std::string_view(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // JsonWriter escapes control bytes as \u00XX; decode every
            // \u escape to UTF-8 so strings read back as written.
            uint32_t code = 0;
            if (!ParseHex4(&code)) return false;
            if (code >= 0xD800 && code < 0xDC00) {
              // A high surrogate needs a low one right after it.
              uint32_t low = 0;
              size_t save = pos_;
              if (text_.compare(pos_, 2, "\\u") == 0) {
                pos_ += 2;
                if (!ParseHex4(&low)) return false;
              }
              if (low >= 0xDC00 && low < 0xE000) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              } else {
                code = kReplacementChar;
                pos_ = save;
              }
            } else if (code >= 0xDC00 && code < 0xE000) {
              code = kReplacementChar;
            }
            AppendUtf8(code, out);
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  /// Reads four hex digits into `*code`; false (consuming nothing) when
  /// any is missing or not a hex digit.
  bool ParseHex4(uint32_t* code) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t value = 0;
    for (size_t i = 0; i < 4; ++i) {
      char h = text_[pos_ + i];
      uint32_t digit;
      if (h >= '0' && h <= '9') {
        digit = static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
      value = value << 4 | digit;
    }
    pos_ += 4;
    *code = value;
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | code >> 6));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | code >> 12));
      out->push_back(static_cast<char>(0x80 | (code >> 6 & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | code >> 18));
      out->push_back(static_cast<char>(0x80 | (code >> 12 & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code >> 6 & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// U+FFFD, what a lone surrogate decodes to.
  static constexpr uint32_t kReplacementChar = 0xFFFD;

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    char* end = nullptr;
    std::string token = text_.substr(start, pos_ - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out) {
  return JsonParser(text).Parse(out);
}

bool ReadJsonDouble(const JsonValue& object, std::string_view key,
                    double* out) {
  const JsonValue* v = object.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  *out = v->number;
  return true;
}

bool ReadJsonInt(const JsonValue& object, std::string_view key, int64_t* out) {
  double d = 0.0;
  if (!ReadJsonDouble(object, key, &d)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

bool ReadJsonBool(const JsonValue& object, std::string_view key, bool* out) {
  const JsonValue* v = object.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return false;
  *out = v->boolean;
  return true;
}

bool ReadJsonString(const JsonValue& object, std::string_view key,
                    std::string* out) {
  const JsonValue* v = object.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  *out = v->string;
  return true;
}

std::string ReadJsonString(const JsonValue& object, std::string_view key) {
  std::string out;
  ReadJsonString(object, key, &out);
  return out;
}

}  // namespace stratlearn::obs
