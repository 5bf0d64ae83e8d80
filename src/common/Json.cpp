#include "qdd/common/Json.hpp"

#include "qdd/common/NumberFormat.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace qdd::json {

void appendEscaped(std::string& out, std::string_view s) {
  // plain characters are copied in runs; only the escapes are written one
  // by one
  std::size_t plain = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
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
    case '\b':
      out += "\\b";
      break;
    case '\f':
      out += "\\f";
      break;
    default:
      out += "\\u00";
      out += static_cast<char>('0' + (c >> 4U));
      out += "0123456789abcdef"[c & 0xFU];
      break;
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendEscaped(out, s);
  return out;
}

void appendNumber(std::string& out, double v, int precision) {
  if (!std::isfinite(v)) {
    out += "null"; // NaN/Inf have no JSON literal; never emit them bare
    return;
  }
  appendGeneral(out, v, precision);
}

Value Value::boolean(bool b) {
  Value v;
  v.k = Kind::Bool;
  v.b = b;
  return v;
}

Value Value::number(double n) {
  Value v;
  v.k = Kind::Number;
  v.num = n;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.k = Kind::String;
  v.str = std::move(s);
  return v;
}

Value Value::raw(std::string json) {
  Value v;
  v.k = Kind::Raw;
  v.str = std::move(json);
  return v;
}

Value Value::array() {
  Value v;
  v.k = Kind::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.k = Kind::Object;
  return v;
}

bool Value::asBool(bool fallback) const {
  return k == Kind::Bool ? b : fallback;
}

double Value::asNumber(double fallback) const {
  return k == Kind::Number ? num : fallback;
}

const std::string& Value::asString() const {
  static const std::string empty;
  return k == Kind::String ? str : empty;
}

const std::vector<Value>& Value::asArray() const {
  static const std::vector<Value> empty;
  return k == Kind::Array ? arr : empty;
}

const std::map<std::string, Value>& Value::asObject() const {
  static const std::map<std::string, Value> empty;
  return k == Kind::Object ? obj : empty;
}

const Value* Value::find(const std::string& key) const {
  if (k != Kind::Object) {
    return nullptr;
  }
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double Value::getNumber(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->isNumber()) ? v->num : fallback;
}

std::string Value::getString(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->isString()) ? v->str : fallback;
}

bool Value::getBool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->isBool()) ? v->b : fallback;
}

void Value::push(Value v) {
  if (k != Kind::Array) {
    throw std::logic_error("json::Value::push on non-array");
  }
  arr.push_back(std::move(v));
}

void Value::set(const std::string& key, Value v) {
  if (k != Kind::Object) {
    throw std::logic_error("json::Value::set on non-object");
  }
  obj[key] = std::move(v);
}

std::string Value::dump() const {
  std::string out;
  dump(out);
  return out;
}

void Value::dump(std::string& out) const {
  switch (k) {
  case Kind::Null:
    out += "null";
    break;
  case Kind::Bool:
    out += b ? "true" : "false";
    break;
  case Kind::Number:
    appendNumber(out, num, 12);
    break;
  case Kind::String:
    out += '"';
    appendEscaped(out, str);
    out += '"';
    break;
  case Kind::Raw:
    out += str;
    break;
  case Kind::Array: {
    out += '[';
    bool first = true;
    for (const auto& v : arr) {
      if (!first) {
        out += ", ";
      }
      first = false;
      v.dump(out);
    }
    out += ']';
    break;
  }
  case Kind::Object: {
    out += '{';
    bool first = true;
    for (const auto& [key, v] : obj) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += '"';
      appendEscaped(out, key);
      out += "\": ";
      v.dump(out);
    }
    out += '}';
    break;
  }
  }
}

// --- parser ------------------------------------------------------------------

namespace {

constexpr std::size_t MAX_DEPTH = 64;

class Parser {
public:
  explicit Parser(const std::string& text) : text(text) {}

  Value run() {
    Value v = parseValue(0);
    skipWs();
    if (pos != text.size()) {
      fail("trailing characters after JSON document");
    }
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos) +
                     ": " + message);
  }

  void skipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) {
      fail("unexpected end of input");
    }
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') {
      ++n;
    }
    if (text.compare(pos, n, word) != 0) {
      return false;
    }
    pos += n;
    return true;
  }

  Value parseValue(std::size_t depth) {
    if (depth > MAX_DEPTH) {
      fail("nesting too deep");
    }
    skipWs();
    switch (peek()) {
    case '{':
      return parseObject(depth);
    case '[':
      return parseArray(depth);
    case '"':
      return Value::string(parseString());
    case 't':
      if (!literal("true")) {
        fail("invalid literal");
      }
      return Value::boolean(true);
    case 'f':
      if (!literal("false")) {
        fail("invalid literal");
      }
      return Value::boolean(false);
    case 'n':
      if (!literal("null")) {
        fail("invalid literal");
      }
      return Value::null();
    default:
      return parseNumber();
    }
  }

  Value parseObject(std::size_t depth) {
    expect('{');
    Value v = Value::object();
    skipWs();
    if (peek() == '}') {
      ++pos;
      return v;
    }
    while (true) {
      skipWs();
      if (peek() != '"') {
        fail("expected object key string");
      }
      std::string key = parseString();
      skipWs();
      expect(':');
      v.set(key, parseValue(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parseArray(std::size_t depth) {
    expect('[');
    Value v = Value::array();
    skipWs();
    if (peek() == ']') {
      ++pos;
      return v;
    }
    while (true) {
      v.push(parseValue(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) {
        fail("unterminated string");
      }
      const char c = text[pos++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) {
        fail("unterminated escape");
      }
      const char e = text[pos++];
      switch (e) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (pos + 4 > text.size()) {
          fail("truncated \\u escape");
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[pos++];
          code <<= 4U;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("invalid hex digit in \\u escape");
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs collapse to one
        // replacement each — circuit sources are ASCII in practice).
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0U | (code >> 6U));
          out += static_cast<char>(0x80U | (code & 0x3FU));
        } else {
          out += static_cast<char>(0xE0U | (code >> 12U));
          out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
          out += static_cast<char>(0x80U | (code & 0x3FU));
        }
        break;
      }
      default:
        fail("invalid escape character");
      }
    }
  }

  Value parseNumber() {
    const std::size_t start = pos;
    if (peek() == '-') {
      ++pos;
    }
    if (pos >= text.size() ||
        std::isdigit(static_cast<unsigned char>(text[pos])) == 0) {
      fail("invalid number");
    }
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    const std::string token = text.substr(start, pos - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      fail("invalid number '" + token + "'");
    }
    return Value::number(v);
  }

  const std::string& text;
  std::size_t pos = 0;
};

} // namespace

Value Value::parse(const std::string& text) { return Parser(text).run(); }

} // namespace qdd::json
