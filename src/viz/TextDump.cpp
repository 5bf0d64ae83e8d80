#include "qdd/viz/TextDump.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace qdd::viz {

std::string toDirac(Package& pkg, const vEdge& state, int precision,
                    double cutoff) {
  if (state.isTerminal()) {
    return "0";
  }
  const auto n = static_cast<std::size_t>(state.p->v) + 1;
  const auto vec = pkg.getVector(state);
  std::string out;
  bool first = true;
  for (std::size_t idx = 0; idx < vec.size(); ++idx) {
    const std::complex<double> amp = vec[idx];
    if (std::abs(amp) <= cutoff) {
      continue;
    }
    if (!first) {
      out += " + ";
    }
    first = false;
    const ComplexValue a{amp.real(), amp.imag()};
    if (a.im == 0. && a.re == 1.) {
      // amplitude 1: omit
    } else if (a.im != 0. && a.re != 0.) {
      out += '(';
      a.appendTo(out, precision);
      out += ')';
    } else {
      a.appendTo(out, precision);
    }
    out += '|';
    for (std::size_t k = n; k-- > 0;) {
      out += ((idx >> k) & 1ULL) != 0 ? '1' : '0';
    }
    out += '>';
  }
  if (first) {
    return "0";
  }
  return out;
}

std::string formatMatrixOmega(const std::vector<std::complex<double>>& mat,
                              std::size_t n, int precision) {
  const std::size_t dim = 1ULL << n;
  const double scale = std::sqrt(static_cast<double>(dim));
  // omega for an n-qubit QFT-style matrix: e^{2 pi i / 2^n}
  const double omegaPhase = 2. * PI / static_cast<double>(dim);
  constexpr double TOL = 1e-9;

  // check whether every entry is (a power of omega) / sqrt(dim) or zero
  bool omegaForm = true;
  for (const auto& entry : mat) {
    const double mag = std::abs(entry);
    if (mag <= TOL) {
      continue;
    }
    if (std::abs(mag * scale - 1.) > 1e-6) {
      omegaForm = false;
      break;
    }
    const double k = std::arg(entry) / omegaPhase;
    const double rounded = std::round(k);
    if (std::abs(k - rounded) > 1e-6) {
      omegaForm = false;
      break;
    }
  }

  std::ostringstream ss;
  if (omegaForm) {
    ss << "1/sqrt(" << dim << ") *  [w = e^(i*pi/" << (dim / 2) << ")]\n";
    for (std::size_t r = 0; r < dim; ++r) {
      ss << "  [";
      for (std::size_t c = 0; c < dim; ++c) {
        const auto entry = mat[r * dim + c];
        std::string cell;
        if (std::abs(entry) <= TOL) {
          cell = "0";
        } else {
          auto k = static_cast<long>(
              std::llround(std::arg(entry) / omegaPhase));
          k = ((k % static_cast<long>(dim)) + static_cast<long>(dim)) %
              static_cast<long>(dim);
          if (k == 0) {
            cell = "1";
          } else if (k == 1) {
            cell = "w";
          } else {
            cell = "w^" + std::to_string(k);
          }
        }
        ss << std::setw(4) << cell << (c + 1 < dim ? " " : "");
      }
      ss << "]\n";
    }
    return ss.str();
  }

  ss << std::setprecision(precision);
  for (std::size_t r = 0; r < dim; ++r) {
    ss << "  [";
    for (std::size_t c = 0; c < dim; ++c) {
      const ComplexValue v{mat[r * dim + c].real(), mat[r * dim + c].imag()};
      ss << std::setw(precision * 2 + 6) << v.toString(precision)
         << (c + 1 < dim ? " " : "");
    }
    ss << "]\n";
  }
  return ss.str();
}

std::string asciiDump(const Graph& g, int precision) {
  std::ostringstream ss;
  if (g.empty()) {
    if (g.isMatrix && !(g.rootWeight.re == 0. && g.rootWeight.im == 0.)) {
      // identity-skipping: the whole diagram is w * I_span
      ss << "root --[" << g.rootWeight.toString(precision) << "]--[I^"
         << g.rootSkippedLevels << "]--> T\n";
      return ss.str();
    }
    return "(zero)\n";
  }
  ss << "root --[" << g.rootWeight.toString(precision) << "]--";
  if (g.rootSkippedLevels > 0) {
    ss << "[I^" << g.rootSkippedLevels << "]--";
  }
  ss << "> n" << g.rootNode << "\n";
  for (const auto& node : g.nodes) {
    ss << "n" << node.id << " (q" << node.level << "):";
    for (const auto& edge : g.edges) {
      if (edge.from != node.id) {
        continue;
      }
      ss << "  [" << edge.port << "]";
      if (edge.zeroStub) {
        ss << "0-stub";
      } else {
        ss << "--(" << edge.weight.toString(precision) << ")--";
        if (edge.skippedLevels > 0) {
          ss << "[I^" << edge.skippedLevels << "]--";
        }
        ss << ">";
        if (edge.to == Graph::TERMINAL_ID) {
          ss << "T";
        } else {
          ss << "n" << edge.to;
        }
      }
    }
    ss << "\n";
  }
  return ss.str();
}

} // namespace qdd::viz
