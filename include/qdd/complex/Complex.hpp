#pragma once

#include "qdd/complex/ComplexValue.hpp"
#include "qdd/complex/RealTable.hpp"

#include <cstdint>
#include <string>

namespace qdd {

/// A canonical, table-resident complex number: a pair of pointers into the
/// `RealTable`. Negative values are encoded by tagging the least significant
/// bit of the pointer (entries are at least 2-byte aligned), so a single
/// stored magnitude serves both signs — the ICCAD'19 design ([14]).
///
/// Two `Complex` values referring to the same table compare equal iff their
/// (tagged) pointers compare equal, which makes edge-weight comparison and
/// compute-table hashing O(1) and exact.
struct Complex {
  RealTable::Entry* r = nullptr;
  RealTable::Entry* i = nullptr;

  // --- tagged pointer helpers ------------------------------------------

  [[nodiscard]] static RealTable::Entry*
  aligned(const RealTable::Entry* e) noexcept {
    return reinterpret_cast<RealTable::Entry*>(
        reinterpret_cast<std::uintptr_t>(e) & ~std::uintptr_t{1U});
  }
  [[nodiscard]] static bool isNegative(const RealTable::Entry* e) noexcept {
    return (reinterpret_cast<std::uintptr_t>(e) & 1U) != 0U;
  }
  [[nodiscard]] static RealTable::Entry*
  flipSign(RealTable::Entry* e) noexcept {
    if (aligned(e)->value == 0.) {
      return e; // -0 is canonicalized to +0
    }
    return reinterpret_cast<RealTable::Entry*>(
        reinterpret_cast<std::uintptr_t>(e) ^ std::uintptr_t{1U});
  }
  [[nodiscard]] static RealTable::Entry* tag(RealTable::Entry* e,
                                             bool negative) noexcept {
    return negative ? flipSign(e) : e;
  }
  /// Signed value of a (possibly tagged) entry pointer.
  [[nodiscard]] static double val(const RealTable::Entry* e) noexcept {
    const auto* a = aligned(e);
    return isNegative(e) ? -a->value : a->value;
  }

  // --- value access ------------------------------------------------------

  [[nodiscard]] double real() const noexcept { return val(r); }
  [[nodiscard]] double imag() const noexcept { return val(i); }
  [[nodiscard]] ComplexValue toValue() const noexcept {
    return {real(), imag()};
  }

  [[nodiscard]] bool exactlyZero() const noexcept {
    return aligned(r) == &RealTable::zero() && aligned(i) == &RealTable::zero();
  }
  [[nodiscard]] bool exactlyOne() const noexcept {
    return r == &RealTable::one() && aligned(i) == &RealTable::zero();
  }
  [[nodiscard]] bool approximatelyEquals(const Complex& o,
                                         double tol) const noexcept {
    return toValue().approximatelyEquals(o.toValue(), tol);
  }
  [[nodiscard]] bool approximatelyZero(double tol) const noexcept {
    return toValue().approximatelyZero(tol);
  }
  [[nodiscard]] bool approximatelyOne(double tol) const noexcept {
    return toValue().approximatelyOne(tol);
  }

  /// Negation is a pure pointer operation; no table access required.
  [[nodiscard]] Complex operator-() const noexcept {
    return {flipSign(r), flipSign(i)};
  }
  /// Complex conjugation is a pure pointer operation as well.
  [[nodiscard]] Complex conj() const noexcept { return {r, flipSign(i)}; }

  friend bool operator==(const Complex& a, const Complex& b) noexcept {
    return a.r == b.r && a.i == b.i;
  }

  [[nodiscard]] std::string toString(int precision = 6) const {
    return toValue().toString(precision);
  }

  // Shared canonical constants (backed by the immortal table entries).
  static const Complex zero;
  static const Complex one;
};

inline const Complex Complex::zero{&RealTable::zero(), &RealTable::zero()};
inline const Complex Complex::one{&RealTable::one(), &RealTable::zero()};

/// Owns a `RealTable` and interns `ComplexValue`s into canonical `Complex`
/// representations. One instance lives inside each DD package.
class ComplexTable {
public:
  explicit ComplexTable(double tolerance = RealTable::DEFAULT_TOLERANCE)
      : reals(tolerance) {}

  /// Interns a complex value. The returned `Complex` is canonical: equal
  /// values (within tolerance) yield pointer-identical results.
  Complex lookup(const ComplexValue& c) {
    return {lookupReal(c.re), lookupReal(c.im)};
  }
  Complex lookup(double re, double im) { return lookup(ComplexValue{re, im}); }

  [[nodiscard]] double tolerance() const noexcept { return reals.tolerance(); }
  void setTolerance(double t) noexcept { reals.setTolerance(t); }

  RealTable& realTable() noexcept { return reals; }
  [[nodiscard]] const RealTable& realTable() const noexcept { return reals; }

  static void incRef(const Complex& c) noexcept {
    RealTable::incRef(Complex::aligned(c.r));
    RealTable::incRef(Complex::aligned(c.i));
  }
  static void decRef(const Complex& c) noexcept {
    RealTable::decRef(Complex::aligned(c.r));
    RealTable::decRef(Complex::aligned(c.i));
  }

  std::size_t garbageCollect() { return reals.garbageCollect(); }

private:
  RealTable::Entry* lookupReal(double v) {
    if (v >= 0.) {
      return reals.lookup(v);
    }
    return Complex::flipSign(reals.lookup(-v));
  }

  RealTable reals;
};

} // namespace qdd
