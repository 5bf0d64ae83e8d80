#include "qdd/dd/Package.hpp"
#include "qdd/obs/Obs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace qdd {

vNode vNode::terminalNode{};
mNode mNode::terminalNode{};

Package::Package(std::size_t numQubits, NormalizationScheme normScheme,
                 double tolerance)
    : nqubits(numQubits), scheme(normScheme), cTable(tolerance),
      vTable(vMem, numQubits), mTable(mMem, numQubits) {}

void Package::resize(std::size_t n) {
  if (n <= nqubits) {
    return;
  }
  nqubits = n;
  vTable.resize(n);
  mTable.resize(n);
}

void Package::shrink(std::size_t n) {
  if (n >= nqubits) {
    return;
  }
  // Published nodes are about to be freed: open a new allocation epoch first
  // so compute-table entries stamped earlier reject recycled pointers.
  ++generation;
  vMem.setGeneration(generation);
  mMem.setGeneration(generation);
  cTable.realTable().setAllocationGeneration(generation);
  setComputeEpochs();

  const auto releaseV = [this](vNode* node) {
    for (const auto& child : node->e) {
      decRefEdge(child);
    }
  };
  const auto releaseM = [this](mNode* node) {
    for (const auto& child : node->e) {
      decRefEdge(child);
    }
  };
  vTable.resize(n, releaseV);
  mTable.resize(n, releaseM);
  nqubits = n;
  // Sweep nodes at surviving levels that just lost their last reference
  // (children of the removed levels) and unreferenced weights.
  garbageCollect(true);
}

// --- reference counting ------------------------------------------------------

// Reference counts are 16-bit and saturate at IMMORTAL_REF: a node that
// ever accumulates 65535 parents is pinned for the package's lifetime
// (inc/dec become no-ops, GC never reclaims it). This is what lets the
// count live in the node's packed cache line.
template <class Node> void Package::incRefEdge(const Edge<Node>& e) noexcept {
  ComplexTable::incRef(e.w);
  if (!e.isTerminal() && e.p->ref < IMMORTAL_REF) {
    ++e.p->ref;
  }
}

template <class Node> void Package::decRefEdge(const Edge<Node>& e) noexcept {
  ComplexTable::decRef(e.w);
  if (!e.isTerminal() && e.p->ref < IMMORTAL_REF) {
    assert(e.p->ref > 0 && "node reference count underflow");
    --e.p->ref;
  }
}

void Package::incRef(const vEdge& e) noexcept { incRefEdge(e); }
void Package::decRef(const vEdge& e) noexcept { decRefEdge(e); }
void Package::incRef(const mEdge& e) noexcept { incRefEdge(e); }
void Package::decRef(const mEdge& e) noexcept { decRefEdge(e); }

bool Package::garbageCollect(bool force) {
  if (!force && !vTable.possiblyNeedsCollection() &&
      !mTable.possiblyNeedsCollection() &&
      !cTable.realTable().possiblyNeedsCollection()) {
    return false;
  }
  // GC pauses are exactly what a latency profile must surface; the span
  // carries the per-run reclaim counts as args.
  obs::ScopedSpan span("dd", "gc");
  ++gcRuns;
  // Open a new allocation epoch before any node is freed. Compute-table
  // entries keep their old stamps; any entry referencing a pointer freed or
  // recycled from here on fails its generation check and is rejected lazily
  // at lookup — entries whose operands and result all survive keep serving
  // hits, so the caches stay warm across collections.
  ++generation;
  vMem.setGeneration(generation);
  mMem.setGeneration(generation);
  cTable.realTable().setAllocationGeneration(generation);
  setComputeEpochs();
  const auto releaseV = [this](vNode* n) {
    for (const auto& child : n->e) {
      decRefEdge(child);
    }
  };
  const auto releaseM = [this](mNode* n) {
    for (const auto& child : n->e) {
      decRefEdge(child);
    }
  };
  const std::size_t dv = vTable.garbageCollect(releaseV);
  const std::size_t dm = mTable.garbageCollect(releaseM);
  const std::size_t dr = cTable.garbageCollect();
  collectedVectorNodes += dv;
  collectedMatrixNodes += dm;
  collectedReals += dr;
  span.arg("generation", static_cast<std::size_t>(generation));
  span.arg("collectedVectorNodes", dv);
  span.arg("collectedMatrixNodes", dm);
  span.arg("collectedReals", dr);
  return true;
}

void Package::setComputeEpochs() noexcept {
  addVecTable.setEpoch(generation);
  addMatTable.setEpoch(generation);
  multMatVecTable.setEpoch(generation);
  multMatMatTable.setEpoch(generation);
  conjTransTable.setEpoch(generation);
  innerProductTable.setEpoch(generation);
  mulWeightTable.setEpoch(generation);
  mulWeight3Table.setEpoch(generation);
}

// --- node construction / normalization --------------------------------------

vEdge Package::makeVecNode(Qubit v, const std::array<vEdge, 2>& edges) {
  assert(v >= 0 && static_cast<std::size_t>(v) < vTable.numLevels());
  std::array<vEdge, 2> e = edges;
  for (auto& edge : e) {
    if (edge.w.exactlyZero()) {
      edge = vEdge::zero(); // canonical 0-stub (paper Ex. 6)
    } else {
      assert((edge.p->v == v - 1 || (edge.isTerminal() && v == 0)) &&
             "level misalignment");
    }
  }
  if (e[0].w.exactlyZero() && e[1].w.exactlyZero()) {
    return vEdge::zero();
  }
  if (scheme == NormalizationScheme::Norm) {
    return normalizeNorm(v, e);
  }
  return normalizeLargest(v, e);
}

vEdge Package::normalizeLargest(Qubit v, std::array<vEdge, 2> e) {
  const ComplexValue w0 = e[0].w.toValue();
  const ComplexValue w1 = e[1].w.toValue();
  // First index whose magnitude is within tolerance of the maximum. The
  // tolerance matters for canonicity: ties (equal magnitudes) must resolve
  // to the same representative regardless of rounding noise, or equal
  // states/matrices built along different computation paths would end up
  // with different nodes.
  const std::size_t top =
      (w1.mag2() > w0.mag2() + tolerance()) ? 1 : 0;
  const ComplexValue topWeight = (top == 0) ? w0 : w1;
  // The weight pulled out of the node is already a canonical table pointer;
  // returning it directly is bit-identical to (and much cheaper than)
  // re-interning its value: table entries are pairwise more than the
  // tolerance apart, so lookup(topWeight) could only ever find this entry.
  const Complex topCanonical = e[top].w;
  const std::size_t other = 1 - top;
  const ComplexValue otherWeight = (top == 0) ? w1 : w0;

  e[top].w = Complex::one;
  if (e[other].w.exactlyZero()) {
    // keep the 0-stub
  } else if (e[other].w == topCanonical) {
    // Equal canonical weights: same-value division is IEEE-exact one
    // (identical numerator/denominator expressions), so the quotient is
    // exactly (1, 0) — elide the divide and both table lookups.
    e[other].w = Complex::one;
  } else if (topCanonical.exactlyOne()) {
    // Division by exact one is value-preserving and the weight is already
    // a canonical pointer: lookup(val(w)) == w. Keep it untouched.
  } else {
    e[other].w = lookup(otherWeight / topWeight);
    if (e[other].w.exactlyZero()) {
      e[other] = vEdge::zero();
    }
  }

  vNode* candidate = vTable.getNode();
  candidate->v = v;
  candidate->e = e;
  candidate->ref = 0;
  bool inserted = false;
  vNode* node = vTable.lookup(candidate, inserted);
  if (inserted) {
    for (const auto& child : node->e) {
      incRefEdge(child);
    }
  }
  return {node, topCanonical};
}

vEdge Package::normalizeNorm(Qubit v, std::array<vEdge, 2> e) {
  const ComplexValue w0 = e[0].w.toValue();
  const ComplexValue w1 = e[1].w.toValue();
  const double mag = std::sqrt(w0.mag2() + w1.mag2());
  // Pull the phase of the first non-zero weight out as well, so the first
  // non-zero outgoing weight is real and non-negative (canonical).
  const ComplexValue first = e[0].w.exactlyZero() ? w1 : w0;
  const ComplexValue topWeight = ComplexValue::fromPolar(mag, first.arg());

  if (!e[0].w.exactlyZero()) {
    e[0].w = lookup(w0 / topWeight);
    if (e[0].w.exactlyZero()) {
      e[0] = vEdge::zero();
    }
  }
  if (!e[1].w.exactlyZero()) {
    e[1].w = lookup(w1 / topWeight);
    if (e[1].w.exactlyZero()) {
      e[1] = vEdge::zero();
    }
  }

  vNode* candidate = vTable.getNode();
  candidate->v = v;
  candidate->e = e;
  candidate->ref = 0;
  bool inserted = false;
  vNode* node = vTable.lookup(candidate, inserted);
  if (inserted) {
    for (const auto& child : node->e) {
      incRefEdge(child);
    }
  }
  return {node, lookup(topWeight)};
}

mEdge Package::makeMatNode(Qubit v, const std::array<mEdge, 4>& edges) {
  assert(v >= 0 && static_cast<std::size_t>(v) < mTable.numLevels());
  std::array<mEdge, 4> e = edges;
  for (auto& edge : e) {
    if (edge.w.exactlyZero()) {
      edge = mEdge::zero();
      continue;
    }
    // Successors may sit any number of levels below `v` (the gap is
    // implicit identity).
    assert((edge.isTerminal() || edge.p->v < v) && "level misalignment");
  }
  if (e[1].w.exactlyZero() && e[2].w.exactlyZero() && e[0].p == e[3].p &&
      e[0].w == e[3].w) {
    // Identity-skipping reduction (arXiv:2406.11959): successors [a, 0, 0, a]
    // represent I (x) A, so the level is skipped and `a` returned directly.
    // The weight comparison is exact — weights are canonical table pointers.
    return e[0];
  }
  std::array<double, 4> mag2{};
  double topMag2 = 0.;
  for (std::size_t k = 0; k < 4; ++k) {
    if (e[k].w.exactlyZero()) {
      continue;
    }
    mag2[k] = e[k].w.toValue().mag2();
    topMag2 = std::max(topMag2, mag2[k]);
  }
  if (topMag2 == 0.) {
    return mEdge::zero();
  }
  // First index within tolerance of the maximal magnitude (see
  // normalizeLargest for why the tolerance is essential for canonicity).
  std::size_t top = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    if (!e[k].w.exactlyZero() && mag2[k] + tolerance() >= topMag2) {
      top = k;
      break;
    }
  }
  const ComplexValue topWeight = e[top].w.toValue();
  // Canonical-pointer fast path, same argument as in normalizeLargest.
  const Complex topCanonical = e[top].w;
  const bool topOne = topCanonical.exactlyOne();
  for (std::size_t k = 0; k < 4; ++k) {
    if (k == top) {
      e[k].w = Complex::one;
    } else if (e[k].w.exactlyZero()) {
      // keep the 0-stub
    } else if (e[k].w == topCanonical) {
      // same-value division is IEEE-exact one (see normalizeLargest)
      e[k].w = Complex::one;
    } else if (topOne) {
      // dividing a canonical weight by exact one: already canonical
    } else {
      e[k].w = lookup(e[k].w.toValue() / topWeight);
      if (e[k].w.exactlyZero()) {
        e[k] = mEdge::zero();
      }
    }
  }

  mNode* candidate = mTable.getNode();
  candidate->v = v;
  candidate->e = e;
  candidate->ref = 0;
  bool inserted = false;
  mNode* node = mTable.lookup(candidate, inserted);
  if (inserted) {
    for (const auto& child : node->e) {
      incRefEdge(child);
    }
  }
  return {node, topCanonical};
}

// --- states -------------------------------------------------------------------

vEdge Package::makeZeroState(std::size_t n) {
  return makeBasisState(n, std::vector<bool>(n, false));
}

vEdge Package::makeBasisState(std::size_t n, const std::vector<bool>& bits) {
  if (n == 0 || bits.size() != n) {
    throw std::invalid_argument("makeBasisState: invalid qubit count");
  }
  resize(n);
  vEdge e = vEdge::one();
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = static_cast<Qubit>(k);
    if (bits[k]) {
      e = makeVecNode(v, {vEdge::zero(), e});
    } else {
      e = makeVecNode(v, {e, vEdge::zero()});
    }
  }
  return e;
}

vEdge Package::makeGHZState(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("makeGHZState: need at least one qubit");
  }
  resize(n);
  vEdge zeros = vEdge::one();
  vEdge ones = vEdge::one();
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const auto v = static_cast<Qubit>(k);
    zeros = makeVecNode(v, {zeros, vEdge::zero()});
    ones = makeVecNode(v, {vEdge::zero(), ones});
  }
  const auto top = static_cast<Qubit>(n - 1);
  vEdge z = zeros;
  z.w = lookup(z.w.toValue() * SQRT2_2);
  vEdge o = ones;
  o.w = lookup(o.w.toValue() * SQRT2_2);
  return makeVecNode(top, {z, o});
}

vEdge Package::makeWState(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("makeWState: need at least one qubit");
  }
  resize(n);
  const double amp = 1. / std::sqrt(static_cast<double>(n));
  // W = sum_k amp * |0..010..0>; build recursively: W_k spans levels 0..k-1.
  // wPart[k]: superposition of single-excitation states on k qubits
  // (unnormalized with amplitude `amp` each); zPart[k]: |0...0> on k qubits.
  vEdge w = vEdge::zero();
  vEdge z = vEdge::one();
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = static_cast<Qubit>(k);
    vEdge excited = z;
    excited.w = lookup(excited.w.toValue() * amp);
    const vEdge newW = (k == 0) ? makeVecNode(v, {vEdge::zero(), excited})
                                : makeVecNode(v, {w, excited});
    if (k + 1 < n) {
      z = makeVecNode(v, {z, vEdge::zero()});
    }
    w = newW;
  }
  return w;
}

vEdge Package::makeStateFromVector(
    const std::vector<std::complex<double>>& vec) {
  const std::size_t len = vec.size();
  if (len < 2 || (len & (len - 1)) != 0) {
    throw std::invalid_argument(
        "makeStateFromVector: length must be a power of two >= 2");
  }
  std::size_t n = 0;
  while ((1ULL << n) < len) {
    ++n;
  }
  resize(n);
  return makeStateFromVector(vec.data(), vec.data() + len,
                             static_cast<Qubit>(n - 1));
}

vEdge Package::makeStateFromVector(const std::complex<double>* begin,
                                   const std::complex<double>* end,
                                   Qubit level) {
  if (level == TERMINAL_LEVEL) {
    assert(end - begin == 1);
    const ComplexValue w{begin->real(), begin->imag()};
    if (w.approximatelyZero(tolerance())) {
      return vEdge::zero();
    }
    return vEdge::terminal(lookup(w));
  }
  const auto* mid = begin + (end - begin) / 2;
  const vEdge lo = makeStateFromVector(begin, mid, level - 1);
  const vEdge hi = makeStateFromVector(mid, end, level - 1);
  return makeVecNode(level, {lo, hi});
}

// --- matrices --------------------------------------------------------------

mEdge Package::makeIdent(std::size_t n) {
  resize(n);
  // The identity is pure skip structure: a bare terminal edge of weight
  // one, on any number of qubits.
  return mEdge::one();
}

mEdge Package::makeGateDD(const GateMatrix& mat, std::size_t n, Qubit target) {
  return makeGateDD(mat, n, QubitControls{}, target);
}

mEdge Package::makeGateDD(const GateMatrix& mat, std::size_t n,
                          const QubitControls& controls, Qubit target) {
  if (n == 0 || target < 0 || static_cast<std::size_t>(target) >= n) {
    throw std::invalid_argument("makeGateDD: invalid target/qubit count");
  }
  resize(n);
  QubitControls ctrls = controls;
  std::sort(ctrls.begin(), ctrls.end());
  for (const auto& c : ctrls) {
    if (c.qubit == target || c.qubit < 0 ||
        static_cast<std::size_t>(c.qubit) >= n) {
      throw std::invalid_argument("makeGateDD: invalid control qubit");
    }
  }

  // Blocks of the target-level matrix, propagated bottom-up (paper Ex. 7:
  // successor order [U00, U01, U10, U11]).
  std::array<mEdge, 4> em{};
  for (std::size_t k = 0; k < 4; ++k) {
    if (mat[k].approximatelyZero(tolerance())) {
      em[k] = mEdge::zero();
    } else {
      em[k] = mEdge::terminal(lookup(mat[k]));
    }
  }

  auto ctrlIt = ctrls.begin();
  // Levels below the target.
  for (Qubit z = 0; z < target; ++z) {
    const bool isControl = ctrlIt != ctrls.end() && ctrlIt->qubit == z;
    const bool positive = isControl && ctrlIt->positive;
    for (std::size_t k = 0; k < 4; ++k) {
      const bool diagonal = (k == 0 || k == 3);
      if (isControl) {
        // Control below the target: the control-inactive branch contributes
        // identity (only on diagonal target blocks); the active branch
        // continues the gate block.
        const mEdge inactive = diagonal ? makeIdent(z) : mEdge::zero();
        if (positive) {
          em[k] = makeMatNode(
              z, {inactive, mEdge::zero(), mEdge::zero(), em[k]});
        } else {
          em[k] = makeMatNode(
              z, {em[k], mEdge::zero(), mEdge::zero(), inactive});
        }
      } else {
        em[k] =
            makeMatNode(z, {em[k], mEdge::zero(), mEdge::zero(), em[k]});
      }
    }
    if (isControl) {
      ++ctrlIt;
    }
  }

  mEdge e = makeMatNode(target, em);

  // Levels above the target.
  for (Qubit z = target + 1; z < static_cast<Qubit>(n); ++z) {
    const bool isControl = ctrlIt != ctrls.end() && ctrlIt->qubit == z;
    if (isControl) {
      // Control above the target: inactive branch is the full identity on
      // all lower qubits (including the target).
      const mEdge inactive = makeIdent(static_cast<std::size_t>(z));
      if (ctrlIt->positive) {
        e = makeMatNode(z, {inactive, mEdge::zero(), mEdge::zero(), e});
      } else {
        e = makeMatNode(z, {e, mEdge::zero(), mEdge::zero(), inactive});
      }
      ++ctrlIt;
    } else {
      e = makeMatNode(z, {e, mEdge::zero(), mEdge::zero(), e});
    }
  }
  return e;
}

mEdge Package::makeSWAPDD(std::size_t n, const QubitControls& controls,
                          Qubit t1, Qubit t2) {
  if (t1 == t2) {
    throw std::invalid_argument("makeSWAPDD: identical targets");
  }
  // SWAP = CX(t1->t2) . CX(t2->t1) . CX(t1->t2); attaching the extra
  // controls to the middle CX yields the controlled SWAP, since the outer
  // pair cancels when the controls are inactive.
  const mEdge outer = makeGateDD(X_MAT, n, {{t1, true}}, t2);
  QubitControls middleControls = controls;
  middleControls.push_back({t2, true});
  const mEdge middle = makeGateDD(X_MAT, n, middleControls, t1);
  return multiply(outer, multiply(middle, outer));
}

mEdge Package::makeTwoQubitGateDD(const TwoQubitGateMatrix& mat, std::size_t n,
                                  Qubit t1, Qubit t0) {
  if (t1 == t0) {
    throw std::invalid_argument("makeTwoQubitGateDD: identical targets");
  }
  resize(n);
  // U = sum_{i,k} sum_{j,l} U[(2i+j),(2k+l)] |i><k|_{t1} (x) |j><l|_{t0}.
  // Each term is the product of two single-qubit "transition matrix" DDs
  // acting on disjoint qubits (so their product equals their tensor
  // extension), scaled by the matrix entry.
  mEdge result = mEdge::zero();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      GateMatrix e1{};
      e1[2 * i + k] = ComplexValue{1., 0.};
      const mEdge dd1 = makeGateDD(e1, n, t1);
      for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0; l < 2; ++l) {
          const ComplexValue entry = mat[(2 * i + j) * 4 + (2 * k + l)];
          if (entry.approximatelyZero(tolerance())) {
            continue;
          }
          GateMatrix e0{};
          e0[2 * j + l] = ComplexValue{1., 0.};
          const mEdge dd0 = makeGateDD(e0, n, t0);
          mEdge term = multiply(dd1, dd0);
          term.w = lookup(term.w.toValue() * entry);
          result = result.w.exactlyZero() ? term : add(result, term);
        }
      }
    }
  }
  return result;
}

mEdge Package::makeMatrixFromDense(const std::vector<std::complex<double>>& mat,
                                   std::size_t n) {
  const std::size_t dim = 1ULL << n;
  if (n == 0 || mat.size() != dim * dim) {
    throw std::invalid_argument("makeMatrixFromDense: bad dimensions");
  }
  resize(n);
  return makeMatrixFromDense(mat, dim, 0, 0, dim, static_cast<Qubit>(n - 1));
}

mEdge Package::makeMatrixFromDense(const std::vector<std::complex<double>>& mat,
                                   std::size_t dim, std::size_t rowOff,
                                   std::size_t colOff, std::size_t blockDim,
                                   Qubit level) {
  if (level == TERMINAL_LEVEL) {
    assert(blockDim == 1);
    const auto entry = mat[rowOff * dim + colOff];
    const ComplexValue w{entry.real(), entry.imag()};
    if (w.approximatelyZero(tolerance())) {
      return mEdge::zero();
    }
    return mEdge::terminal(lookup(w));
  }
  const std::size_t half = blockDim / 2;
  std::array<mEdge, 4> e{};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      e[2 * i + j] =
          makeMatrixFromDense(mat, dim, rowOff + i * half, colOff + j * half,
                              half, level - 1);
    }
  }
  return makeMatNode(level, e);
}

// --- statistics -----------------------------------------------------------

namespace {
template <class Node>
void countNodes(const Node* p, std::unordered_set<const Node*>& seen) {
  if (p->isTerminal() || seen.contains(p)) {
    return;
  }
  seen.insert(p);
  for (const auto& child : p->e) {
    if (!child.w.exactlyZero()) {
      countNodes(child.p, seen);
    }
  }
}
} // namespace

std::size_t Package::size(const vEdge& e) {
  std::unordered_set<const vNode*> seen;
  countNodes(e.p, seen);
  return seen.size();
}

std::size_t Package::size(const mEdge& e) {
  std::unordered_set<const mNode*> seen;
  countNodes(e.p, seen);
  return seen.size();
}

std::size_t Package::materializedSize(const mEdge& e, std::size_t n) {
  std::unordered_set<const mNode*> seen;
  countNodes(e.p, seen);
  std::set<std::pair<const mNode*, Qubit>> tower;
  const auto addSkipped = [&tower](const mEdge& edge, Qubit from) {
    if (edge.w.exactlyZero()) {
      return;
    }
    const Qubit to = edge.isTerminal() ? TERMINAL_LEVEL : edge.p->v;
    for (Qubit level = to + 1; level < from; ++level) {
      tower.emplace(edge.p, level);
    }
  };
  addSkipped(e, static_cast<Qubit>(n));
  for (const mNode* p : seen) {
    for (const auto& child : p->e) {
      addSkipped(child, p->v);
    }
  }
  return seen.size() + tower.size();
}

namespace {
template <class Node>
std::vector<std::size_t> tallyByLevel(const std::unordered_set<const Node*>& seen) {
  std::vector<std::size_t> perLevel;
  for (const Node* p : seen) {
    const auto v = static_cast<std::size_t>(p->v);
    if (v >= perLevel.size()) {
      perLevel.resize(v + 1, 0);
    }
    ++perLevel[v];
  }
  return perLevel;
}
} // namespace

std::vector<std::size_t> Package::sizeByLevel(const vEdge& e) {
  std::unordered_set<const vNode*> seen;
  countNodes(e.p, seen);
  return tallyByLevel(seen);
}

std::vector<std::size_t> Package::sizeByLevel(const mEdge& e) {
  std::unordered_set<const mNode*> seen;
  countNodes(e.p, seen);
  return tallyByLevel(seen);
}

mem::StatsRegistry Package::statistics() const {
  mem::StatsRegistry reg;
  reg.vectorTable = vTable.stats();
  reg.matrixTable = mTable.stats();
  reg.reals = cTable.realTable().stats();
  reg.computeTables.push_back(addVecTable.stats("addVector"));
  reg.computeTables.push_back(addMatTable.stats("addMatrix"));
  reg.computeTables.push_back(multMatVecTable.stats("multiplyMatVec"));
  reg.computeTables.push_back(multMatMatTable.stats("multiplyMatMat"));
  reg.computeTables.push_back(conjTransTable.stats("conjugateTranspose"));
  reg.computeTables.push_back(innerProductTable.stats("innerProduct"));
  reg.computeTables.push_back(mulWeightTable.stats("mulWeight"));
  reg.computeTables.push_back(mulWeight3Table.stats("mulWeight3"));
  reg.apply = applyCounters;
  reg.gc.runs = gcRuns;
  reg.gc.generation = generation;
  reg.gc.collectedVectorNodes = collectedVectorNodes;
  reg.gc.collectedMatrixNodes = collectedMatrixNodes;
  reg.gc.collectedReals = collectedReals;
  return reg;
}

mem::TablePressure Package::tablePressure() const {
  mem::TablePressure p;
  p.vectorNodes = vTable.size();
  p.matrixNodes = mTable.size();
  p.realEntries = cTable.realTable().size();
  // Deliberately counts only the DD-operation caches: the scalar weight
  // memos see an order of magnitude more traffic and would drown the
  // per-operation hit-rate series they feed.
  p.cacheLookups = addVecTable.lookups() + addMatTable.lookups() +
                   multMatVecTable.lookups() + multMatMatTable.lookups() +
                   conjTransTable.lookups() + innerProductTable.lookups();
  p.cacheHits = addVecTable.hits() + addMatTable.hits() +
                multMatVecTable.hits() + multMatMatTable.hits() +
                conjTransTable.hits() + innerProductTable.hits();
  p.gcRuns = gcRuns;
  return p;
}

} // namespace qdd
