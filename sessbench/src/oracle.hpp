#pragma once

// The benchmark's oracle: a dense state-vector simulator written from the
// qelib1 gate definitions (no qdd code), the expander that turns a served
// `dd` document back into amplitudes, and the comparisons every answer goes
// through. Qubit q is bit q of a basis index, as in the served documents.

#include "circuits.hpp"
#include "minijson.hpp"

#include <cmath>
#include <array>
#include <complex>
#include <numbers>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sessbench {

using cplx = std::complex<double>;
using State = std::vector<cplx>;

inline State basisState(int n, std::uint64_t index = 0) {
  State s(std::size_t{1} << static_cast<unsigned>(n));
  s[index] = 1.;
  return s;
}

/// 2x2 matrix {m00, m01, m10, m11} of a single-qubit qelib1 gate.
inline std::array<cplx, 4> singleQubitMatrix(const Gate& g) {
  const double r = 1. / std::sqrt(2.);
  const cplx i(0., 1.);
  const auto phase = [](double l) { return std::polar(1., l); };
  if (g.name == "h") return {r, r, r, -r};
  if (g.name == "x") return {0., 1., 1., 0.};
  if (g.name == "y") return {0., -i, i, 0.};
  if (g.name == "z") return {1., 0., 0., -1.};
  if (g.name == "s") return {1., 0., 0., i};
  if (g.name == "sdg") return {1., 0., 0., -i};
  if (g.name == "t") return {1., 0., 0., phase(std::numbers::pi / 4.)};
  if (g.name == "tdg") return {1., 0., 0., phase(-std::numbers::pi / 4.)};
  if (g.name == "u1") return {1., 0., 0., phase(g.param)};
  if (g.name == "ry") {
    const double c = std::cos(g.param / 2.);
    const double s = std::sin(g.param / 2.);
    return {c, -s, s, c};
  }
  throw std::logic_error("oracle: no matrix for gate " + g.name);
}

/// Complex product without the IEEE special-value handling of operator*,
/// which would cost a library call per multiplication.
inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// Applies one unitary gate in place to `psi`, which holds `cols` values
/// per basis index (1 for a state; 2^n for a unitary's columns, so the inner
/// loops run over contiguous memory). Measure and reset are the caller's.
inline void applyGate(State& psi, const Gate& g, std::size_t cols = 1) {
  const std::size_t dim = psi.size() / cols;
  const auto bit = [](int q) { return std::size_t{1} << static_cast<unsigned>(q); };
  const auto row = [&](std::size_t x) { return psi.begin() + static_cast<std::ptrdiff_t>(x * cols); };
  if (g.name == "barrier") {
    return;
  }
  if (g.name == "cx" || g.name == "ccx" || g.name == "swap") {
    // permutations: swap the rows of each basis pair
    std::size_t ctrl = 0;
    std::size_t flip = 0;
    if (g.name == "swap") {
      flip = bit(g.q[0]) | bit(g.q[1]);
    } else {
      for (std::size_t k = 0; k + 1 < g.q.size(); ++k) {
        ctrl |= bit(g.q[k]);
      }
      flip = bit(g.q.back());
    }
    const std::size_t low = g.name == "swap" ? bit(g.q[0]) : flip;
    for (std::size_t x = 0; x < dim; ++x) {
      if ((x & ctrl) == ctrl && (x & flip) == (g.name == "swap" ? low : 0)) {
        std::swap_ranges(row(x), row(x) + static_cast<std::ptrdiff_t>(cols),
                         row(x ^ flip));
      }
    }
    return;
  }
  if (g.name == "cz" || g.name == "cu1") {
    const std::size_t both = bit(g.q[0]) | bit(g.q[1]);
    const cplx f = g.name == "cz" ? cplx(-1.) : std::polar(1., g.param);
    for (std::size_t x = 0; x < dim; ++x) {
      if ((x & both) == both) {
        for (auto it = row(x); it != row(x) + static_cast<std::ptrdiff_t>(cols); ++it) {
          *it = mul(*it, f);
        }
      }
    }
    return;
  }
  const auto m = singleQubitMatrix(g);
  const std::size_t t = bit(g.q[0]);
  for (std::size_t x = 0; x < dim; ++x) {
    if ((x & t) == 0) {
      auto a = row(x);
      auto b = row(x | t);
      for (std::size_t c = 0; c < cols; ++c) {
        const cplx a0 = a[static_cast<std::ptrdiff_t>(c)];
        const cplx a1 = b[static_cast<std::ptrdiff_t>(c)];
        a[static_cast<std::ptrdiff_t>(c)] = mul(m[0], a0) + mul(m[1], a1);
        b[static_cast<std::ptrdiff_t>(c)] = mul(m[2], a0) + mul(m[3], a1);
      }
    }
  }
}

/// Applies a unitary circuit; `cols` as for applyGate.
inline State simulate(const Circuit& c, State psi, std::size_t cols = 1) {
  for (const Gate& g : c.gates) {
    if (g.name == "measure" || g.name == "reset") {
      throw std::logic_error("simulate: non-unitary gate");
    }
    applyGate(psi, g, cols);
  }
  return psi;
}

inline double norm2(const State& a) {
  double s = 0.;
  for (const cplx& v : a) {
    s += std::norm(v);
  }
  return s;
}

inline cplx inner(const State& a, const State& b) {
  cplx s = 0.;
  for (std::size_t x = 0; x < a.size(); ++x) {
    s += std::conj(a[x]) * b[x];
  }
  return s;
}

/// |<a|b>|^2 / (<a|a><b|b>): 1 for equal states up to global phase.
inline double fidelity(const State& a, const State& b) {
  const double na = norm2(a);
  const double nb = norm2(b);
  if (na == 0. || nb == 0.) {
    return 0.;
  }
  return std::norm(inner(a, b)) / (na * nb);
}

/// Probability of reading `outcome` on qubit q.
inline double probability(const State& psi, int q, int outcome) {
  const std::size_t t = std::size_t{1} << static_cast<unsigned>(q);
  double p = 0.;
  for (std::size_t x = 0; x < psi.size(); ++x) {
    if (((x & t) != 0) == (outcome == 1)) {
      p += std::norm(psi[x]);
    }
  }
  return p;
}

/// Normalized projection onto `outcome` of qubit q; with `reset`, the qubit
/// is then flipped back to |0>.
inline State project(const State& psi, int q, int outcome, bool reset) {
  const std::size_t t = std::size_t{1} << static_cast<unsigned>(q);
  State out(psi.size());
  const double scale = 1. / std::sqrt(probability(psi, q, outcome));
  for (std::size_t x = 0; x < psi.size(); ++x) {
    if (((x & t) != 0) == (outcome == 1)) {
      out[reset ? (x & ~t) : x] = psi[x] * scale;
    }
  }
  return out;
}

/// Amplitudes of a served vector `dd` document: the root weight times the
/// edge weights along each basis path; zero stubs contribute 0.
inline State expandVectorDd(const JVal& dd, int n) {
  State amps(std::size_t{1} << static_cast<unsigned>(n));
  if (dd.string("kind") != "vector") {
    throw std::runtime_error("dd: expected a vector document");
  }
  if (dd.flag("zero")) {
    return amps;
  }
  struct Succ {
    int to = -2; ///< node index, -1 terminal, -2 zero stub
    cplx w;
  };
  const JVal* nodes = dd.get("nodes");
  const JVal* edges = dd.get("edges");
  const JVal* root = dd.get("root");
  if (nodes == nullptr || edges == nullptr || root == nullptr) {
    throw std::runtime_error("dd: missing root, nodes or edges");
  }
  std::vector<int> level(nodes->arr.size());
  std::vector<std::array<Succ, 2>> succ(nodes->arr.size());
  std::vector<int> idToIndex;
  for (std::size_t k = 0; k < nodes->arr.size(); ++k) {
    const auto id = static_cast<std::size_t>(nodes->arr[k].number("id"));
    if (id >= idToIndex.size()) {
      idToIndex.resize(id + 1, -1);
    }
    idToIndex[id] = static_cast<int>(k);
    level[k] = static_cast<int>(nodes->arr[k].number("level"));
  }
  const auto indexOf = [&](const JVal& ref) -> int {
    if (ref.kind == JVal::Kind::Str && ref.str == "terminal") {
      return -1;
    }
    const auto id = static_cast<std::size_t>(ref.num);
    if (ref.kind != JVal::Kind::Num || id >= idToIndex.size() ||
        idToIndex[id] < 0) {
      throw std::runtime_error("dd: edge to unknown node");
    }
    return idToIndex[id];
  };
  const auto weight = [](const JVal& e) {
    const JVal* w = e.get("weight");
    if (w == nullptr) {
      throw std::runtime_error("dd: edge without weight");
    }
    return cplx(w->number("re"), w->number("im"));
  };
  for (const JVal& e : edges->arr) {
    if (e.get("skippedLevels") != nullptr) {
      throw std::runtime_error("dd: vector edge skips levels");
    }
    const int from = indexOf(*e.get("from"));
    const int port = static_cast<int>(e.number("port"));
    if (from < 0 || port < 0 || port > 1) {
      throw std::runtime_error("dd: bad edge");
    }
    if (e.flag("zeroStub")) {
      succ[static_cast<std::size_t>(from)][static_cast<std::size_t>(port)] = {};
      continue;
    }
    succ[static_cast<std::size_t>(from)][static_cast<std::size_t>(port)] =
        Succ{indexOf(*e.get("to")), weight(e)};
  }
  const int top = indexOf(*root->get("node"));
  const cplx rootWeight = weight(*root);
  if (top < 0 || level[static_cast<std::size_t>(top)] != n - 1) {
    throw std::runtime_error("dd: root is not at the top level");
  }
  // depth-first over all non-zero paths
  struct Frame {
    int node;
    std::size_t prefix;
    cplx acc;
  };
  std::vector<Frame> stack{{top, 0, rootWeight}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const int lv = level[static_cast<std::size_t>(f.node)];
    for (int port = 0; port < 2; ++port) {
      const Succ& s = succ[static_cast<std::size_t>(f.node)]
                          [static_cast<std::size_t>(port)];
      if (s.to == -2) {
        continue;
      }
      const std::size_t prefix =
          f.prefix | (static_cast<std::size_t>(port) << static_cast<unsigned>(lv));
      if (s.to == -1) {
        if (lv != 0) {
          throw std::runtime_error("dd: terminal above level 0");
        }
        amps[prefix] = f.acc * s.w;
        continue;
      }
      if (level[static_cast<std::size_t>(s.to)] != lv - 1) {
        throw std::runtime_error("dd: edge skips a level");
      }
      stack.push_back(Frame{s.to, prefix, f.acc * s.w});
    }
  }
  return amps;
}

/// How far a served state may sit from the oracle's given that each printed
/// weight carries 10 significant digits (relative error 5e-10) and a basis
/// path multiplies n+1 of them; plus the package's own real-table tolerance
/// (1e-10) accumulated over the gates applied so far.
inline double servedTolerance(int n, std::size_t gatesApplied) {
  return 2. * (n + 1) * 5e-10 + 2e-10 * static_cast<double>(gatesApplied + 1);
}

struct Comparison {
  bool ok = false;
  double infidelity = 1.;
  double normError = 1.;
};

inline Comparison compareStates(const State& served, const State& expected,
                                double tol) {
  Comparison c;
  c.normError = std::abs(norm2(served) - 1.);
  c.infidelity = 1. - fidelity(served, expected);
  c.ok = c.normError <= tol && c.infidelity <= tol;
  return c;
}

// --- closed forms for jobs beyond the dense oracle ---------------------------

/// QFT (with swaps) of |x>: amplitude exp(2 pi i x y / 2^n) / sqrt(2^n).
inline State qftClosedForm(int n, std::uint64_t x) {
  const std::size_t dim = std::size_t{1} << static_cast<unsigned>(n);
  State s(dim);
  const double scale = 1. / std::sqrt(static_cast<double>(dim));
  for (std::size_t y = 0; y < dim; ++y) {
    const std::uint64_t prod = (x * y) & (dim - 1);
    s[y] = std::polar(scale, 2. * std::numbers::pi * static_cast<double>(prod) /
                                 static_cast<double>(dim));
  }
  return s;
}

/// Grover after r iterations over k data qubits: sin((2r+1)theta) on the
/// marked item, cos((2r+1)theta)/sqrt(N-1) elsewhere, ancillas clean.
inline State groverClosedForm(int n, std::uint64_t marked, int r) {
  const int k = groverDataQubits(n);
  const double N = std::ldexp(1., k);
  const double theta = std::asin(1. / std::sqrt(N));
  const double a = std::sin((2 * r + 1) * theta);
  const double b = std::cos((2 * r + 1) * theta) / std::sqrt(N - 1.);
  State s(std::size_t{1} << static_cast<unsigned>(n));
  for (std::size_t x = 0; x < (std::size_t{1} << static_cast<unsigned>(k)); ++x) {
    s[x] = x == marked ? a : b;
  }
  return s;
}

inline double groverSuccessProbability(int n, int r) {
  const double N = std::ldexp(1., groverDataQubits(n));
  const double theta = std::asin(1. / std::sqrt(N));
  const double a = std::sin((2 * r + 1) * theta);
  return a * a;
}

inline State ghzClosedForm(int n) {
  State s(std::size_t{1} << static_cast<unsigned>(n));
  s.front() = 1. / std::sqrt(2.);
  s.back() = 1. / std::sqrt(2.);
  return s;
}

} // namespace sessbench
