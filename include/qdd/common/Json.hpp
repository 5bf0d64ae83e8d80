#pragma once

// qdd::json — the one JSON reader and writer of the package: a strict,
// dependency-free value model (request bodies, response documents, the
// trace checker, tests) plus the escape and number appenders every JSON
// writer shares (the DD exporters, the session documents, the trace and
// stats writers, the access log). Deliberately small: no SAX interface, no
// number bignums, no comments/trailing commas (RFC 8259 only).
//
// Every writer obeys the same rules: control characters are escaped, and
// NaN/Inf serialize as null, never bare.

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace qdd::json {

/// Appends `s` escaped for embedding in a JSON string literal: quote,
/// backslash, and all control characters (U+0000..U+001F as \uXXXX or the
/// short forms \n \r \t \b \f).
void appendEscaped(std::string& out, std::string_view s);
/// appendEscaped() into a fresh string.
[[nodiscard]] std::string escape(std::string_view s);

/// Appends a double as a JSON number with the given significant precision
/// (the general format of qdd::appendGeneral). Non-finite values (NaN,
/// +/-Inf) have no JSON representation and must never be emitted bare —
/// they serialize as `null`, which every strict parser accepts and
/// renderers can treat as "undefined".
void appendNumber(std::string& out, double v, int precision);

/// Thrown by parse() on malformed input; `what()` carries offset context.
class ParseError : public std::runtime_error {
public:
  explicit ParseError(const std::string& message)
      : std::runtime_error(message) {}
};

/// One JSON value (null / bool / number / string / array / object).
/// Object member order is not preserved (std::map) — no reader relies on
/// it, and deterministic iteration makes serialized output reproducible.
class Value {
public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
    Raw ///< pre-serialized JSON text; see raw()
  };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool b);
  static Value number(double n);
  static Value string(std::string s);
  static Value array();
  static Value object();
  /// A value whose serialized form the caller wrote already: dump() copies
  /// `json` verbatim, and parse() never produces this kind. It lets a
  /// document embed a large member (the DD of a session document, the
  /// stats of /metrics) without building a DOM for it. The caller vouches
  /// that `json` is one valid JSON value.
  static Value raw(std::string json);

  /// Strict parse of a complete JSON document (trailing whitespace allowed,
  /// trailing garbage is an error). Throws ParseError.
  static Value parse(const std::string& text);

  [[nodiscard]] Kind kind() const noexcept { return k; }
  [[nodiscard]] bool isNull() const noexcept { return k == Kind::Null; }
  [[nodiscard]] bool isBool() const noexcept { return k == Kind::Bool; }
  [[nodiscard]] bool isNumber() const noexcept { return k == Kind::Number; }
  [[nodiscard]] bool isString() const noexcept { return k == Kind::String; }
  [[nodiscard]] bool isArray() const noexcept { return k == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept { return k == Kind::Object; }

  [[nodiscard]] bool asBool(bool fallback = false) const;
  [[nodiscard]] double asNumber(double fallback = 0.) const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<Value>& asArray() const;
  [[nodiscard]] const std::map<std::string, Value>& asObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// Typed convenience getters over find(): fall back when the member is
  /// absent or of the wrong type.
  [[nodiscard]] double getNumber(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  /// Mutating builders (only valid on the matching kind).
  void push(Value v);
  void set(const std::string& key, Value v);

  /// Serializes the value: single line, object members in key order,
  /// ", " and ": " separators, numbers with 12 significant digits.
  [[nodiscard]] std::string dump() const;
  /// Appends the dump() form to `out`.
  void dump(std::string& out) const;

private:
  Kind k = Kind::Null;
  bool b = false;
  double num = 0.;
  std::string str;
  std::vector<Value> arr;
  std::map<std::string, Value> obj;
};

} // namespace qdd::json
