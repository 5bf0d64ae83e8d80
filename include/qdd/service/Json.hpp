#pragma once

// qdd::service::json — a strict, dependency-free JSON value model for the
// HTTP API: parse request bodies, build response documents, round-trip in
// tests. Deliberately small: no SAX interface, no number bignums, no
// comments/trailing commas (requests violating RFC 8259 are 400s).
//
// String *writing* shares viz::appendJsonEscaped / viz::appendJsonNumber
// with the DD exporters, so every byte the service emits obeys the same
// escaping rules (control characters escaped, NaN/Inf serialized as null,
// never bare). dump() appends the whole document to one string.

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace qdd::service::json {

/// Thrown by parse() on malformed input; `what()` carries offset context.
class ParseError : public std::runtime_error {
public:
  explicit ParseError(const std::string& message)
      : std::runtime_error(message) {}
};

/// One JSON value (null / bool / number / string / array / object).
/// Object member order is not preserved (std::map) — the API never relies
/// on it, and deterministic iteration makes serialized output reproducible.
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
  /// document embed a large member (the DD of a session document) without
  /// building a DOM for it. The caller vouches that `json` is one valid
  /// JSON value.
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

} // namespace qdd::service::json
