#pragma once

// A small strict JSON reader for the load generator. It is written apart
// from the server's own JSON code on purpose: a change to the program's
// parser or writer must not move the side that measures and checks it.

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sessbench {

struct JVal {
  enum class Kind : std::uint8_t { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool boolean = false;
  double num = 0.;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  [[nodiscard]] const JVal* get(std::string_view key) const {
    if (kind != Kind::Obj) {
      return nullptr;
    }
    for (const auto& [k, v] : obj) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  [[nodiscard]] double number(std::string_view key) const {
    const JVal* v = get(key);
    if (v == nullptr || v->kind != Kind::Num) {
      throw std::runtime_error("missing number \"" + std::string(key) + "\"");
    }
    return v->num;
  }
  [[nodiscard]] std::string string(std::string_view key) const {
    const JVal* v = get(key);
    if (v == nullptr || v->kind != Kind::Str) {
      throw std::runtime_error("missing string \"" + std::string(key) + "\"");
    }
    return v->str;
  }
  [[nodiscard]] bool flag(std::string_view key) const {
    const JVal* v = get(key);
    return v != nullptr && v->kind == Kind::Bool && v->boolean;
  }
};

class JsonReader {
public:
  explicit JsonReader(std::string_view text) : s(text) {}

  JVal document() {
    JVal v = value();
    ws();
    if (i != s.size()) {
      fail("trailing characters");
    }
    return v;
  }

private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at offset " +
                             std::to_string(i));
  }
  void ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t')) {
      ++i;
    }
  }
  char peek() {
    ws();
    if (i >= s.size()) {
      fail("unexpected end");
    }
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) {
      fail("unexpected character");
    }
    ++i;
  }
  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) == word) {
      i += word.size();
      return true;
    }
    return false;
  }

  JVal value() {
    const char c = peek();
    JVal v;
    if (c == '{') {
      ++i;
      v.kind = JVal::Kind::Obj;
      if (peek() == '}') {
        ++i;
        return v;
      }
      while (true) {
        if (peek() != '"') {
          fail("expected key");
        }
        std::string key = stringBody();
        expect(':');
        v.obj.emplace_back(std::move(key), value());
        const char d = peek();
        ++i;
        if (d == '}') {
          return v;
        }
        if (d != ',') {
          fail("expected , or }");
        }
      }
    }
    if (c == '[') {
      ++i;
      v.kind = JVal::Kind::Arr;
      if (peek() == ']') {
        ++i;
        return v;
      }
      while (true) {
        v.arr.push_back(value());
        const char d = peek();
        ++i;
        if (d == ']') {
          return v;
        }
        if (d != ',') {
          fail("expected , or ]");
        }
      }
    }
    if (c == '"') {
      v.kind = JVal::Kind::Str;
      v.str = stringBody();
      return v;
    }
    if (literal("true")) {
      v.kind = JVal::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = JVal::Kind::Bool;
      return v;
    }
    if (literal("null")) {
      return v;
    }
    v.kind = JVal::Kind::Num;
    const char* first = s.data() + i;
    const auto [end, ec] = std::from_chars(first, s.data() + s.size(), v.num);
    if (ec != std::errc() || end == first) {
      fail("bad number");
    }
    i += static_cast<std::size_t>(end - first);
    return v;
  }

  std::string stringBody() {
    ++i; // opening quote
    std::string out;
    while (true) {
      if (i >= s.size()) {
        fail("unterminated string");
      }
      const char c = s[i++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i >= s.size()) {
        fail("bad escape");
      }
      const char e = s[i++];
      switch (e) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 > s.size()) {
          fail("bad \\u escape");
        }
        unsigned code = 0;
        std::from_chars(s.data() + i, s.data() + i + 4, code, 16);
        i += 4;
        out += code < 0x80 ? static_cast<char>(code) : '?';
        break;
      }
      default: out += e; break;
      }
    }
  }

  std::string_view s;
  std::size_t i = 0;
};

inline JVal parseJson(std::string_view text) {
  return JsonReader(text).document();
}

/// Escapes `s` as the body of a JSON string literal.
inline std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    case '\r': out += "\\r"; break;
    default: out += c; break;
    }
  }
  return out;
}

} // namespace sessbench
