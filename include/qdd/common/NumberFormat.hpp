#pragma once

// Stream-free number formatting for every text writer of the package (JSON
// documents, Dirac strings, DOT/SVG/TikZ labels). One std::to_chars call
// per number, appended to the caller's buffer: no std::ostringstream, no
// locale, no temporary string.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <type_traits>

namespace qdd {

/// Appends `v` with `precision` significant digits in the general format:
/// the same bytes as `std::ostream << std::setprecision(precision) << v`
/// (printf "%.*g" in the C locale), including "nan", "inf" and "-0".
/// A negative precision means the stream default, 6.
inline void appendGeneral(std::string& out, double v, int precision) {
  if (precision < 0) {
    precision = 6;
  }
  // "%.Pg" never needs more than P + 8 characters: a sign, "0.000" ahead
  // of P digits, or one digit, a point, P - 1 digits and "e-308"
  const std::size_t start = out.size();
  out.resize(start + static_cast<std::size_t>(std::max(precision, 1)) + 8);
  const auto result = std::to_chars(out.data() + start,
                                    out.data() + out.size(), v,
                                    std::chars_format::general, precision);
  out.resize(static_cast<std::size_t>(result.ptr - out.data()));
}

/// Appends `v` with `precision` digits after the point: the same bytes as
/// `std::ostream << std::fixed << std::setprecision(precision) << v`
/// (printf "%.*f" in the C locale), including "nan", "inf" and "-0.0".
/// A negative precision means the stream default, 6.
inline void appendFixed(std::string& out, double v, int precision) {
  if (precision < 0) {
    precision = 6;
  }
  // "%.Pf" never needs more than P + 311 characters: a sign, the 309
  // integer digits of DBL_MAX, a point and P digits
  const std::size_t start = out.size();
  out.resize(start + static_cast<std::size_t>(precision) + 311);
  const auto result = std::to_chars(out.data() + start,
                                    out.data() + out.size(), v,
                                    std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(result.ptr - out.data()));
}

/// Appends the decimal digits of `v` (with a '-' when negative).
template <class Int> void appendInteger(std::string& out, Int v) {
  static_assert(std::is_integral_v<Int>);
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

} // namespace qdd
