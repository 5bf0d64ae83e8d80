#pragma once

#include "qdd/complex/ComplexValue.hpp"

#include <cstdint>
#include <string>

namespace qdd::viz {

/// An sRGB color.
struct Rgb {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  /// "#rrggbb", lower-case hex digits.
  [[nodiscard]] std::string toHex() const;
  /// Appends toHex() to `out`.
  void appendHex(std::string& out) const;
  friend bool operator==(const Rgb& a, const Rgb& b) = default;
};

/// Converts HLS (hue/lightness/saturation, each in [0,1]) to RGB — the
/// color space of the wheel shown in Fig. 7(b).
Rgb hlsToRgb(double hue, double lightness, double saturation);

/// Maps the complex phase of an edge weight onto the HLS color wheel used by
/// the tool (Fig. 7(b)): hue = phase / 2pi (phase normalized to [0, 2pi)),
/// full saturation, mid lightness. Phase 0 is red, pi/2 yellow-green-ish,
/// pi cyan, etc.
Rgb phaseToColor(double phase);

/// Convenience: color of a complex edge weight.
Rgb weightToColor(const ComplexValue& w);

/// Line thickness encoding the magnitude of an edge weight (Sec. IV-A:
/// "the magnitude of an edge weight can be reflected by the thickness of
/// the line"). Returns a stroke width in points within [min, min+span].
double magnitudeToThickness(double magnitude, double min = 0.5,
                            double span = 3.);

} // namespace qdd::viz
