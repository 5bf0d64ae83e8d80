#include "qdd/viz/Color.hpp"

#include <algorithm>
#include <cmath>

namespace qdd::viz {

std::string Rgb::toHex() const {
  std::string out;
  appendHex(out);
  return out;
}

void Rgb::appendHex(std::string& out) const {
  constexpr const char* digits = "0123456789abcdef";
  const char hex[7] = {'#',
                       digits[r >> 4U], digits[r & 0xFU],
                       digits[g >> 4U], digits[g & 0xFU],
                       digits[b >> 4U], digits[b & 0xFU]};
  out.append(hex, sizeof(hex));
}

namespace {
double hueToChannel(double p, double q, double t) {
  if (t < 0.) {
    t += 1.;
  }
  if (t > 1.) {
    t -= 1.;
  }
  if (t < 1. / 6.) {
    return p + (q - p) * 6. * t;
  }
  if (t < 1. / 2.) {
    return q;
  }
  if (t < 2. / 3.) {
    return p + (q - p) * (2. / 3. - t) * 6.;
  }
  return p;
}

std::uint8_t toByte(double v) {
  return static_cast<std::uint8_t>(
      std::lround(std::clamp(v, 0., 1.) * 255.));
}
} // namespace

Rgb hlsToRgb(double hue, double lightness, double saturation) {
  hue = hue - std::floor(hue); // wrap into [0,1)
  lightness = std::clamp(lightness, 0., 1.);
  saturation = std::clamp(saturation, 0., 1.);
  if (saturation == 0.) {
    const std::uint8_t g = toByte(lightness);
    return {g, g, g};
  }
  const double q = lightness < 0.5
                       ? lightness * (1. + saturation)
                       : lightness + saturation - lightness * saturation;
  const double p = 2. * lightness - q;
  return {toByte(hueToChannel(p, q, hue + 1. / 3.)),
          toByte(hueToChannel(p, q, hue)),
          toByte(hueToChannel(p, q, hue - 1. / 3.))};
}

Rgb phaseToColor(double phase) {
  double normalized = phase / (2. * PI);
  normalized -= std::floor(normalized); // [0, 1)
  return hlsToRgb(normalized, 0.5, 1.);
}

Rgb weightToColor(const ComplexValue& w) { return phaseToColor(w.arg()); }

double magnitudeToThickness(double magnitude, double min, double span) {
  return min + span * std::clamp(magnitude, 0., 1.);
}

} // namespace qdd::viz
