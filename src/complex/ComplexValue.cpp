#include "qdd/complex/ComplexValue.hpp"

#include "qdd/common/NumberFormat.hpp"

#include <ostream>

namespace qdd {

std::string ComplexValue::toString(int precision) const {
  std::string out;
  appendTo(out, precision);
  return out;
}

void ComplexValue::appendTo(std::string& out, int precision) const {
  if (im == 0.) {
    appendGeneral(out, re, precision);
  } else if (re == 0.) {
    appendGeneral(out, im, precision);
    out += 'i';
  } else {
    appendGeneral(out, re, precision);
    out += im < 0. ? '-' : '+';
    appendGeneral(out, std::abs(im), precision);
    out += 'i';
  }
}

std::ostream& operator<<(std::ostream& os, const ComplexValue& c) {
  return os << c.toString();
}

} // namespace qdd
