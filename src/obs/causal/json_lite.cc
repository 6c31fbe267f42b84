#include "obs/causal/json_lite.h"

#include <cstdlib>

namespace cruz::obs::causal {

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool Fail(const std::string& why) {
    if (error.empty()) {
      error = why + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return Fail("bad literal");
    pos += len;
    return true;
  }

  bool ParseString(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') return Fail("expected '\"'");
    ++pos;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return Fail("truncated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // The exporter only escapes control characters; encode the rest
          // of the BMP as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue& out) {
    SkipWs();
    if (pos >= text.size()) return Fail("unexpected end of input");
    char c = text[pos];
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return ParseString(out.text);
    }
    if (c == '{') {
      ++pos;
      out.type = JsonValue::Type::kObject;
      SkipWs();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        SkipWs();
        std::string key;
        if (!ParseString(key)) return false;
        SkipWs();
        if (pos >= text.size() || text[pos] != ':') return Fail("expected ':'");
        ++pos;
        JsonValue value;
        if (!ParseValue(value)) return false;
        out.fields.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos >= text.size()) return Fail("unterminated object");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == '}') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out.type = JsonValue::Type::kArray;
      SkipWs();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue value;
        if (!ParseValue(value)) return false;
        out.items.push_back(std::move(value));
        SkipWs();
        if (pos >= text.size()) return Fail("unterminated array");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == ']') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == 't') {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return Literal("true", 4);
    }
    if (c == 'f') {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return Literal("false", 5);
    }
    if (c == 'n') {
      out.type = JsonValue::Type::kNull;
      return Literal("null", 4);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      out.type = JsonValue::Type::kNumber;
      std::size_t start = pos;
      if (text[pos] == '-') ++pos;
      while (pos < text.size() &&
             ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
              text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
              text[pos] == '-')) {
        ++pos;
      }
      out.text = text.substr(start, pos - start);
      return true;
    }
    return Fail("unexpected character");
  }
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t JsonValue::AsU64() const {
  if (type != Type::kNumber && type != Type::kString) return 0;
  return std::strtoull(text.c_str(), nullptr, 10);
}

double JsonValue::AsDouble() const {
  if (type != Type::kNumber && type != Type::kString) return 0;
  return std::strtod(text.c_str(), nullptr);
}

bool ParseJson(const std::string& text, JsonValue& out, std::string& error) {
  out = JsonValue{};  // reused output values must not accumulate fields
  Parser p{text};
  if (!p.ParseValue(out)) {
    error = p.error;
    return false;
  }
  p.SkipWs();
  if (p.pos != text.size()) {
    error = "trailing garbage at offset " + std::to_string(p.pos);
    return false;
  }
  return true;
}

}  // namespace cruz::obs::causal
