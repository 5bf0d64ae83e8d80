#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

namespace qdd {

/// Plain value-semantic complex number used for all intermediate arithmetic.
///
/// Canonical (table-resident) complex numbers are represented by `Complex`
/// (a pair of tagged pointers into the `RealTable`); `ComplexValue` is the
/// cheap, copyable counterpart used while computing edge weights before they
/// are interned.
struct ComplexValue {
  double re = 0.;
  double im = 0.;

  constexpr ComplexValue() = default;
  constexpr ComplexValue(double real, double imag) : re(real), im(imag) {}
  constexpr explicit ComplexValue(double real) : re(real) {}
  constexpr ComplexValue(const std::complex<double>& c)
      : re(c.real()), im(c.imag()) {}

  [[nodiscard]] constexpr double mag2() const { return re * re + im * im; }
  [[nodiscard]] double mag() const { return std::hypot(re, im); }
  /// Principal argument in (-pi, pi].
  [[nodiscard]] double arg() const { return std::atan2(im, re); }

  [[nodiscard]] constexpr ComplexValue conj() const { return {re, -im}; }

  [[nodiscard]] bool approximatelyEquals(const ComplexValue& other,
                                         double tol) const {
    return std::abs(re - other.re) <= tol && std::abs(im - other.im) <= tol;
  }
  [[nodiscard]] bool approximatelyZero(double tol) const {
    return std::abs(re) <= tol && std::abs(im) <= tol;
  }
  [[nodiscard]] bool approximatelyOne(double tol) const {
    return std::abs(re - 1.) <= tol && std::abs(im) <= tol;
  }

  [[nodiscard]] constexpr bool exactlyZero() const {
    return re == 0. && im == 0.;
  }
  [[nodiscard]] constexpr bool exactlyOne() const {
    return re == 1. && im == 0.;
  }

  constexpr ComplexValue& operator+=(const ComplexValue& o) {
    re += o.re;
    im += o.im;
    return *this;
  }
  constexpr ComplexValue& operator-=(const ComplexValue& o) {
    re -= o.re;
    im -= o.im;
    return *this;
  }
  constexpr ComplexValue& operator*=(const ComplexValue& o) {
    const double r = re * o.re - im * o.im;
    const double i = re * o.im + im * o.re;
    re = r;
    im = i;
    return *this;
  }
  ComplexValue& operator/=(const ComplexValue& o) {
    const double d = o.mag2();
    const double r = (re * o.re + im * o.im) / d;
    const double i = (im * o.re - re * o.im) / d;
    re = r;
    im = i;
    return *this;
  }

  friend constexpr ComplexValue operator+(ComplexValue a,
                                          const ComplexValue& b) {
    return a += b;
  }
  friend constexpr ComplexValue operator-(ComplexValue a,
                                          const ComplexValue& b) {
    return a -= b;
  }
  friend constexpr ComplexValue operator*(ComplexValue a,
                                          const ComplexValue& b) {
    return a *= b;
  }
  friend ComplexValue operator/(ComplexValue a, const ComplexValue& b) {
    return a /= b;
  }
  friend constexpr ComplexValue operator*(ComplexValue a, double s) {
    a.re *= s;
    a.im *= s;
    return a;
  }
  friend constexpr ComplexValue operator*(double s, ComplexValue a) {
    return a * s;
  }
  friend constexpr bool operator==(const ComplexValue& a,
                                   const ComplexValue& b) {
    return a.re == b.re && a.im == b.im;
  }

  [[nodiscard]] constexpr ComplexValue operator-() const { return {-re, -im}; }

  [[nodiscard]] std::complex<double> toStdComplex() const { return {re, im}; }

  /// Unit complex number with the given phase: e^{i*phase}.
  [[nodiscard]] static ComplexValue fromPolar(double magnitude, double phase) {
    return {magnitude * std::cos(phase), magnitude * std::sin(phase)};
  }

  /// Human-readable rendering, e.g. "0.707107+0.707107i".
  [[nodiscard]] std::string toString(int precision = 6) const;
  /// Appends the toString() rendering to `out`.
  void appendTo(std::string& out, int precision = 6) const;
};

std::ostream& operator<<(std::ostream& os, const ComplexValue& c);

/// 1/sqrt(2) with full double precision.
inline constexpr double SQRT2_2 = 0.70710678118654752440L;
inline constexpr double PI = 3.14159265358979323846L;

} // namespace qdd

template <> struct std::hash<qdd::ComplexValue> {
  std::size_t operator()(const qdd::ComplexValue& c) const noexcept {
    const std::size_t h1 = std::hash<double>{}(c.re);
    const std::size_t h2 = std::hash<double>{}(c.im);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6U) + (h1 >> 2U));
  }
};
