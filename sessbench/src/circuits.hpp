#pragma once

// Seeded OpenQASM 2.0 inputs for the benchmark workloads: the circuit
// families of the paper's stepping UI and compiled pairs for the verifier.
// The server sees only the QASM text; the oracle reads the same gate list
// directly, so neither side depends on the other's parser.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sessbench {

/// One qelib1 operation. `q` holds controls first, target last.
struct Gate {
  std::string name; ///< h x y z s sdg t tdg u1 ry cx cz cu1 ccx swap
                    ///< measure reset barrier
  std::vector<int> q;
  double param = 0.;
};

struct Circuit {
  std::string family;
  int n = 0;
  std::vector<Gate> gates;
};

/// Seeded stream; raw mt19937_64 draws keep the inputs identical across
/// standard-library implementations for the same seed.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : eng(seed) {}
  std::uint64_t below(std::uint64_t k) { return eng() % k; }
  double unit() {
    return static_cast<double>(eng() >> 11U) * 0x1.0p-53;
  }

private:
  std::mt19937_64 eng;
};

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x7F4A7C159E3779B9ULL);
  h ^= h >> 31U;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27U;
  return h;
}

inline std::string toQasm(const Circuit& c) {
  std::string out = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                    std::to_string(c.n) + "];\ncreg c[" +
                    std::to_string(c.n) + "];\n";
  char buf[64];
  for (const Gate& g : c.gates) {
    if (g.name == "barrier") {
      out += "barrier q;\n";
      continue;
    }
    if (g.name == "measure") {
      out += "measure q[" + std::to_string(g.q[0]) + "] -> c[" +
             std::to_string(g.q[0]) + "];\n";
      continue;
    }
    out += g.name;
    if (g.name == "u1" || g.name == "ry" || g.name == "cu1") {
      std::snprintf(buf, sizeof(buf), "(%.17g)", g.param);
      out += buf;
    }
    for (std::size_t k = 0; k < g.q.size(); ++k) {
      out += (k == 0 ? " q[" : ",q[") + std::to_string(g.q[k]) + "]";
    }
    out += ";\n";
  }
  return out;
}

// --- families ----------------------------------------------------------------

inline void add(Circuit& c, std::string name, std::vector<int> q,
                double param = 0.) {
  c.gates.push_back(Gate{std::move(name), std::move(q), param});
}

/// X gates that prepare the basis state `x` on qubits [first, first+bits).
inline void prepareBasis(Circuit& c, std::uint64_t x, int first, int bits) {
  for (int b = 0; b < bits; ++b) {
    if (((x >> static_cast<unsigned>(b)) & 1U) != 0) {
      add(c, "x", {first + b});
    }
  }
}

/// QFT with final swaps applied to the basis state |x>.
inline Circuit qft(int n, std::uint64_t x) {
  Circuit c{"qft", n, {}};
  prepareBasis(c, x, 0, n);
  for (int j = n - 1; j >= 0; --j) {
    add(c, "h", {j});
    for (int k = j - 1; k >= 0; --k) {
      add(c, "cu1", {k, j}, std::numbers::pi / std::ldexp(1., j - k));
    }
  }
  for (int i = 0; i < n / 2; ++i) {
    add(c, "swap", {i, n - 1 - i});
  }
  return c;
}

inline Circuit ghz(int n) {
  Circuit c{"ghz", n, {}};
  add(c, "h", {0});
  for (int i = 1; i < n; ++i) {
    add(c, "cx", {i - 1, i});
  }
  return c;
}

/// W state by moving the excitation down a chain of controlled-RY
/// rotations (each controlled RY written with qelib1's ry and cx).
inline Circuit wState(int n) {
  Circuit c{"wstate", n, {}};
  add(c, "x", {0});
  for (int i = 0; i + 1 < n; ++i) {
    const double theta = 2. * std::acos(std::sqrt(1. / (n - i)));
    add(c, "ry", {i + 1}, theta / 2.);
    add(c, "cx", {i, i + 1});
    add(c, "ry", {i + 1}, -theta / 2.);
    add(c, "cx", {i, i + 1});
    add(c, "cx", {i + 1, i});
  }
  return c;
}

/// Multi-controlled X by a Toffoli V-chain over clean ancillas.
inline void mcx(Circuit& c, const std::vector<int>& controls, int target,
                const std::vector<int>& ancillas) {
  const std::size_t m = controls.size();
  if (m == 1) {
    add(c, "cx", {controls[0], target});
    return;
  }
  if (m == 2) {
    add(c, "ccx", {controls[0], controls[1], target});
    return;
  }
  std::vector<Gate> compute;
  compute.push_back(Gate{"ccx", {controls[0], controls[1], ancillas[0]}, 0.});
  for (std::size_t k = 2; k + 1 < m; ++k) {
    compute.push_back(
        Gate{"ccx", {controls[k], ancillas[k - 2], ancillas[k - 1]}, 0.});
  }
  c.gates.insert(c.gates.end(), compute.begin(), compute.end());
  add(c, "ccx", {controls[m - 1], ancillas[m - 3], target});
  c.gates.insert(c.gates.end(), compute.rbegin(), compute.rend());
}

/// Data qubits of a Grover circuit on n qubits: k data + (k-3) ancillas.
inline int groverDataQubits(int n) { return (n + 3) / 2; }

/// Grover search for `marked` over k data qubits, `iterations` rounds of
/// phase oracle and diffusion. Qubits [0,k) hold data, then ancillas; an
/// odd width leaves the last qubit idle.
inline Circuit grover(int n, std::uint64_t marked, int iterations) {
  Circuit c{"grover", n, {}};
  const int k = groverDataQubits(n);
  std::vector<int> controls;
  std::vector<int> ancillas;
  for (int i = 0; i + 1 < k; ++i) {
    controls.push_back(i);
  }
  for (int a = 0; a < k - 3; ++a) {
    ancillas.push_back(k + a);
  }
  const auto mcz = [&] {
    add(c, "h", {k - 1});
    mcx(c, controls, k - 1, ancillas);
    add(c, "h", {k - 1});
  };
  for (int i = 0; i < k; ++i) {
    add(c, "h", {i});
  }
  for (int it = 0; it < iterations; ++it) {
    for (int i = 0; i < k; ++i) {
      if (((marked >> static_cast<unsigned>(i)) & 1U) == 0) {
        add(c, "x", {i});
      }
    }
    mcz();
    for (int i = 0; i < k; ++i) {
      if (((marked >> static_cast<unsigned>(i)) & 1U) == 0) {
        add(c, "x", {i});
      }
    }
    for (int i = 0; i < k; ++i) {
      add(c, "h", {i});
      add(c, "x", {i});
    }
    mcz();
    for (int i = 0; i < k; ++i) {
      add(c, "x", {i});
      add(c, "h", {i});
    }
  }
  return c;
}

inline int groverOptimalIterations(int k) {
  return static_cast<int>(
      std::floor(std::numbers::pi / 4. * std::sqrt(std::ldexp(1., k))));
}

/// Cuccaro ripple-carry adder on m-bit registers: qubit 0 is the carry in,
/// a at [1, m], b at [m+1, 2m], carry out at 2m+1. Leaves b = a + b.
inline Circuit adder(int m, std::uint64_t a, std::uint64_t b) {
  Circuit c{"adder", 2 * m + 2, {}};
  const auto A = [](int i) { return 1 + i; };
  const auto B = [m](int i) { return 1 + m + i; };
  const int cout = 2 * m + 1;
  prepareBasis(c, a, A(0), m);
  prepareBasis(c, b, B(0), m);
  const auto maj = [&](int x, int y, int z) {
    add(c, "cx", {z, y});
    add(c, "cx", {z, x});
    add(c, "ccx", {x, y, z});
  };
  const auto uma = [&](int x, int y, int z) {
    add(c, "ccx", {x, y, z});
    add(c, "cx", {z, x});
    add(c, "cx", {x, y});
  };
  maj(0, B(0), A(0));
  for (int i = 1; i < m; ++i) {
    maj(A(i - 1), B(i), A(i));
  }
  add(c, "cx", {A(m - 1), cout});
  for (int i = m - 1; i >= 1; --i) {
    uma(A(i - 1), B(i), A(i));
  }
  uma(0, B(0), A(0));
  return c;
}

/// Index of the basis state the adder leaves: a kept, b = a + b mod 2^m,
/// carry out set on overflow.
inline std::uint64_t adderResult(int m, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t mask = (1ULL << static_cast<unsigned>(m)) - 1;
  const std::uint64_t sum = a + b;
  std::uint64_t idx = a << 1U;
  idx |= (sum & mask) << static_cast<unsigned>(m + 1);
  idx |= (sum >> static_cast<unsigned>(m)) << static_cast<unsigned>(2 * m + 1);
  return idx;
}

/// Random Clifford+T circuit of `count` gates.
inline Circuit cliffordT(int n, int count, Rng& rng) {
  Circuit c{"cliffordt", n, {}};
  static const char* const oneQubit[] = {"h", "s", "sdg", "t", "tdg", "x"};
  for (int g = 0; g < count; ++g) {
    const auto r = rng.below(10);
    const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (r < 6) {
      add(c, oneQubit[r], {a});
    } else {
      int b = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
      b += b >= a ? 1 : 0;
      add(c, r < 9 ? "cx" : "cz", {a, b});
    }
  }
  return c;
}

/// Inserts a measurement of one qubit near the middle and a reset of
/// another qubit further on: the paper's breakpoints.
inline void addMidCircuitMeasureReset(Circuit& c, Rng& rng) {
  const auto size = c.gates.size();
  const int mq = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.n)));
  const int rq = (mq + 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(c.n - 1)))) %
                 c.n;
  c.gates.insert(c.gates.begin() + static_cast<std::ptrdiff_t>(3 * size / 4),
                 Gate{"reset", {rq}, 0.});
  c.gates.insert(c.gates.begin() + static_cast<std::ptrdiff_t>(size / 2),
                 Gate{"measure", {mq}, 0.});
}

// --- compiled pairs for the verifier ----------------------------------------

struct Pair {
  Circuit left;  ///< source circuit
  Circuit right; ///< compiled circuit, a barrier after each source gate
  bool equivalent = true;
};

inline void emitImage(Circuit& out, const Gate& g) {
  const auto& q = g.q;
  if (g.name == "ccx") {
    // qelib1's own definition of ccx: an exact Clifford+T network
    const int a = q[0], b = q[1], t = q[2];
    add(out, "h", {t});
    add(out, "cx", {b, t});
    add(out, "tdg", {t});
    add(out, "cx", {a, t});
    add(out, "t", {t});
    add(out, "cx", {b, t});
    add(out, "tdg", {t});
    add(out, "cx", {a, t});
    add(out, "t", {b});
    add(out, "t", {t});
    add(out, "h", {t});
    add(out, "cx", {a, b});
    add(out, "t", {a});
    add(out, "tdg", {b});
    add(out, "cx", {a, b});
  } else if (g.name == "cu1") {
    // qelib1's definition of cu1 by CX and phases
    add(out, "u1", {q[0]}, g.param / 2.);
    add(out, "cx", {q[0], q[1]});
    add(out, "u1", {q[1]}, -g.param / 2.);
    add(out, "cx", {q[0], q[1]});
    add(out, "u1", {q[1]}, g.param / 2.);
  } else if (g.name == "swap") {
    add(out, "cx", {q[0], q[1]});
    add(out, "cx", {q[1], q[0]});
    add(out, "cx", {q[0], q[1]});
  } else {
    out.gates.push_back(g);
  }
}

inline bool disjoint(const Gate& a, const Gate& b) {
  for (const int x : a.q) {
    for (const int y : b.q) {
      if (x == y) {
        return false;
      }
    }
  }
  return true;
}

/// A source circuit of `count` gates and its compilation by exact rewrites:
/// Toffoli into its Clifford+T network, controlled phase into CX and
/// phases, SWAP into three CX, inserted cancelling pairs, and swapped
/// neighbours on disjoint qubits. A non-equivalent pair turns the last T of
/// the compiled circuit into a T-dagger.
inline Pair compiledPair(int n, int count, bool equivalent, Rng& rng) {
  Pair p;
  p.equivalent = equivalent;
  p.left = Circuit{"source", n, {}};
  const auto pick = [&](int avoid1, int avoid2) {
    while (true) {
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (v != avoid1 && v != avoid2) {
        return v;
      }
    }
  };
  // a fixed make-up of gate kinds in a seeded order, so a pair's DD work
  // depends little on the seed: 3 Toffoli, 2 controlled phase, 1 SWAP,
  // 1 CX and 3 single-qubit gates in every 10
  std::vector<int> deck(static_cast<std::size_t>(count));
  for (int g = 0; g < count; ++g) {
    deck[static_cast<std::size_t>(g)] = g % 10;
  }
  for (std::size_t g = deck.size(); g > 1; --g) {
    std::swap(deck[g - 1], deck[rng.below(g)]);
  }
  for (const int r : deck) {
    const int a = pick(-1, -1);
    const int b = pick(a, -1);
    if (r < 3) {
      add(p.left, "ccx", {a, b, pick(a, b)});
    } else if (r < 5) {
      add(p.left, "cu1", {a, b},
          std::numbers::pi / std::ldexp(1., 1 + static_cast<int>(rng.below(3))));
    } else if (r < 6) {
      add(p.left, "swap", {a, b});
    } else if (r < 7) {
      add(p.left, "cx", {a, b});
    } else {
      static const char* const oneQubit[] = {"h", "t", "s"};
      add(p.left, oneQubit[r - 7], {a});
    }
  }

  p.right = Circuit{"compiled", n, {}};
  static const char* const cancelling[][2] = {
      {"h", "h"}, {"t", "tdg"}, {"x", "x"}, {"s", "sdg"}};
  for (std::size_t g = 0; g < p.left.gates.size(); ++g) {
    const Gate& gate = p.left.gates[g];
    if (g + 1 < p.left.gates.size() && rng.below(8) == 0 &&
        disjoint(gate, p.left.gates[g + 1])) {
      emitImage(p.right, p.left.gates[g + 1]);
      add(p.right, "barrier", {});
      emitImage(p.right, gate);
      add(p.right, "barrier", {});
      ++g;
      continue;
    }
    if (rng.below(6) == 0) {
      const auto& pairNames = cancelling[rng.below(4)];
      const int q = pick(-1, -1);
      add(p.right, pairNames[0], {q});
      add(p.right, pairNames[1], {q});
    }
    emitImage(p.right, gate);
    add(p.right, "barrier", {});
  }

  if (!equivalent) {
    std::vector<std::size_t> ts;
    for (std::size_t g = 0; g < p.right.gates.size(); ++g) {
      if (p.right.gates[g].name == "t") {
        ts.push_back(g);
      }
    }
    if (ts.empty()) {
      throw std::logic_error("compiled circuit has no T gate to perturb");
    }
    // the last T, so the DD diverges from the identity only for the last
    // few gates and the run's work barely depends on the seed
    p.right.gates[ts.back()].name = "tdg";
  }
  return p;
}

} // namespace sessbench
