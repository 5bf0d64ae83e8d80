#pragma once

// Order statistics and small output helpers shared by the load generator
// and the in-process replay. No qdd code.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace sessbench {

/// Quantile `q` in [0, 1] by linear interpolation between order statistics;
/// NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Formats a double for a JSON document: all significant digits, and
/// `null` for values without a JSON literal.
inline std::string jsonNum(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Appends `"name": {"value": v, "unit": "u"}` to a metrics object body.
inline void addMetric(std::string& out, const std::string& name, double value,
                      const std::string& unit) {
  if (!out.empty()) {
    out += ", ";
  }
  out += "\"" + name + "\": {\"value\": " + jsonNum(value) + ", \"unit\": \"" +
         unit + "\"}";
}

} // namespace sessbench
