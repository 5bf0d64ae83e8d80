#include "DDOpSpan.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/obs/Obs.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>

// Direct gate application: Package::applyGate recurses on the *state* DD
// instead of building the gate's matrix DD and running the general
// matrix-vector multiply. One unified kernel covers every (multi-)controlled
// 2x2 gate:
//
//   * levels above the target are rebuilt structurally (identity levels copy
//     both children, control levels reuse the inactive child untouched and
//     recurse only into the active one), memoized per state node;
//   * at the target, the children combine as z_i = m_i0*c_0 + m_i1*c_1 with
//     exact-one multiplications and ~zero terms elided — for diagonal gates
//     both off-terms vanish (pure edge-weight rescale, no additions), for
//     antidiagonal gates both diagonal terms vanish (pure child swap);
//   * controls *below* the target turn the applied child z and the original
//     child x into the graft (1-P)x + P z, where P projects onto the
//     remaining controls being satisfied. Because P is diagonal and
//     factorizes per qubit, the graft is a pure structural splice — no
//     additions — that descends only until the last control is consumed and
//     short-circuits whole subtrees whenever x == z (which is how a
//     controlled phase touches nothing outside its satisfied path).
//
// Results go through the same makeVecNode normalization and weight-table
// lookups as the general path, so they are bit-identical to
// multiply(makeGateDD(...), v) — asserted by tests/test_apply.cpp.

namespace qdd {

namespace {

/// Memo key of the splice combiner: both edges, compared exactly. The level
/// and the remaining-control index are deterministic per key (any non-zero
/// edge pins the level via its node; two zero edges never reach the memo), so
/// they need not be part of it.
struct SpliceKey {
  vEdge x;
  vEdge z;

  friend bool operator==(const SpliceKey& a, const SpliceKey& b) noexcept {
    return a.x == b.x && a.z == b.z;
  }
};

std::size_t hashEdgeInto(std::size_t seed, const vEdge& e) noexcept {
  seed = detail::combineHash(seed, detail::ptrHash(e.p));
  seed = detail::combineHash(seed, detail::ptrHash(e.w.r));
  return detail::combineHash(seed, detail::ptrHash(e.w.i));
}

struct SpliceKeyHash {
  std::size_t operator()(const SpliceKey& k) const noexcept {
    return hashEdgeInto(hashEdgeInto(0, k.x), k.z);
  }
};

struct NodePtrHash {
  std::size_t operator()(const vNode* p) const noexcept {
    return detail::combineHash(0, detail::ptrHash(p));
  }
};

/// Open-addressed scratch memo reused across applyGate calls: `reset()` is
/// O(1) (a stamp bump invalidates every slot), so per-gate invocations on
/// small states pay no allocation or clearing — the dominant cost of the
/// node-based maps this replaces. Slots are valid only when their stamp
/// matches the current round; linear probing, doubling at 3/4 load.
template <class Key, class Value, class Hasher>
class ScratchMemo {
public:
  void reset() {
    ++stamp;
    entries = 0;
    if (stamp == 0) { // stamp wrapped: old rounds become ambiguous, clear
      for (auto& s : slots) {
        s.stamp = 0;
      }
      stamp = 1;
    }
  }

  [[nodiscard]] const Value* find(const Key& key) const noexcept {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t idx = Hasher{}(key) & mask;; idx = (idx + 1) & mask) {
      const Slot& s = slots[idx];
      if (s.stamp != stamp) {
        return nullptr;
      }
      if (s.key == key) {
        return &s.value;
      }
    }
  }

  void insert(const Key& key, const Value& value) {
    if ((entries + 1) * 4 >= slots.size() * 3) {
      grow();
    }
    const std::size_t mask = slots.size() - 1;
    std::size_t idx = Hasher{}(key) & mask;
    while (slots[idx].stamp == stamp) {
      idx = (idx + 1) & mask;
    }
    slots[idx] = Slot{key, value, stamp};
    ++entries;
  }

private:
  struct Slot {
    Key key{};
    Value value{};
    std::uint32_t stamp = 0;
  };

  void grow() {
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots.size() - 1;
    for (const Slot& s : old) {
      if (s.stamp != stamp) {
        continue;
      }
      std::size_t idx = Hasher{}(s.key) & mask;
      while (slots[idx].stamp == stamp) {
        idx = (idx + 1) & mask;
      }
      slots[idx] = s;
    }
  }

  std::vector<Slot> slots = std::vector<Slot>(64);
  std::uint32_t stamp = 0;
  std::size_t entries = 0;
};

enum Polarity : signed char { None, Positive, Negative };

/// Reusable per-thread scratch for applyGate: the memo tables and the small
/// vectors survive across invocations, so a gate application allocates
/// nothing in steady state (the per-gate unordered_map churn used to
/// dominate small-state circuits such as Grover).
struct ApplyScratch {
  ScratchMemo<const vNode*, vEdge, NodePtrHash> down;
  ScratchMemo<SpliceKey, vEdge, SpliceKeyHash> splice;
  std::vector<Polarity> polarity;
  QubitControls below;
};

/// State of one applyGate invocation: the gate, the control partition, and
/// the per-call memo tables. Uses only the public Package interface, so the
/// kernel shares makeVecNode normalization and add() semantics with the
/// general path by construction.
class ApplyCtx {
public:
  ApplyCtx(Package& pkg, const GateMatrix& gate, Qubit targetQubit,
           const QubitControls& sortedControls, Qubit rootLevel,
           ApplyScratch& scratch)
      : p(pkg), mat(gate), target(targetQubit), tol(pkg.tolerance()),
        polarity(scratch.polarity), below(scratch.below),
        downMemo(scratch.down), spliceMemo(scratch.splice) {
    downMemo.reset();
    spliceMemo.reset();
    // polarity[z] for control levels above the target; controls below the
    // target are consumed top-down by the splice, so keep them descending.
    polarity.assign(static_cast<std::size_t>(rootLevel) + 1, None);
    below.clear();
    for (const auto& c : sortedControls) {
      if (c.qubit > target) {
        polarity[static_cast<std::size_t>(c.qubit)] =
            c.positive ? Positive : Negative;
      } else {
        below.push_back(c);
      }
    }
    std::reverse(below.begin(), below.end());
  }

  /// Applies the gate to `node` (taken with weight one); the caller composes
  /// the incoming edge weight on top.
  vEdge run(vNode* node) { return down(vEdge{node, Complex::one}); }

private:
  /// Descends from the root to the target level.
  vEdge down(const vEdge& e) {
    if (e.w.exactlyZero()) {
      return vEdge::zero();
    }
    assert(!e.isTerminal() && e.p->v >= target && "applyGate: level underrun");
    vEdge nodeResult;
    if (const vEdge* hit = downMemo.find(e.p)) {
      nodeResult = *hit;
    } else {
      const Qubit z = e.p->v;
      if (z == target) {
        nodeResult = atTarget(e.p);
      } else {
        std::array<vEdge, 2> r{};
        switch (polarity[static_cast<std::size_t>(z)]) {
        case Positive:
          r = {e.p->e[0], down(e.p->e[1])};
          break;
        case Negative:
          r = {down(e.p->e[0]), e.p->e[1]};
          break;
        case None:
          r = {down(e.p->e[0]), down(e.p->e[1])};
          break;
        }
        nodeResult = p.makeVecNode(z, r);
      }
      downMemo.insert(e.p, nodeResult);
    }
    return compose(nodeResult, e.w);
  }

  /// Combines the target node's children through the 2x2 matrix, then grafts
  /// the result onto the original wherever a below-target control is idle.
  vEdge atTarget(vNode* node) {
    const vEdge c0 = node->e[0];
    const vEdge c1 = node->e[1];
    std::array<vEdge, 2> r{};
    for (std::size_t i = 0; i < 2; ++i) {
      const vEdge t0 = scale(mat[2 * i], c0);
      const vEdge t1 = scale(mat[2 * i + 1], c1);
      if (t0.w.exactlyZero()) {
        r[i] = t1;
      } else if (t1.w.exactlyZero()) {
        r[i] = t0;
      } else {
        r[i] = p.add(t0, t1);
      }
    }
    if (!below.empty()) {
      r[0] = splice(c0, r[0], static_cast<Qubit>(target - 1), 0);
      r[1] = splice(c1, r[1], static_cast<Qubit>(target - 1), 0);
    }
    return p.makeVecNode(target, r);
  }

  /// (1-P)x + P z, with P the projector onto the below-target controls
  /// below[ci..] being satisfied. x and z are sibling edges at `level`.
  vEdge splice(const vEdge& x, const vEdge& z, Qubit level, std::size_t ci) {
    if (ci == below.size()) {
      return z; // P = identity
    }
    if (x == z) {
      return x; // (1-P)x + P x = x, whatever P
    }
    const SpliceKey key{x, z};
    if (const vEdge* hit = spliceMemo.find(key)) {
      return *hit;
    }
    assert(level >= 0 && "applyGate: splice descended past a control");
    std::array<vEdge, 2> r{};
    const QubitControl& c = below[ci];
    if (c.qubit == level) {
      const std::size_t active = c.positive ? 1 : 0;
      const auto next = static_cast<Qubit>(level - 1);
      r[1 - active] = childOf(x, 1 - active, level);
      r[active] = splice(childOf(x, active, level), childOf(z, active, level),
                         next, ci + 1);
    } else {
      const auto next = static_cast<Qubit>(level - 1);
      r[0] = splice(childOf(x, 0, level), childOf(z, 0, level), next, ci);
      r[1] = splice(childOf(x, 1, level), childOf(z, 1, level), next, ci);
    }
    const vEdge result = p.makeVecNode(level, r);
    spliceMemo.insert(key, result);
    return result;
  }

  /// k-th child of `e` with the edge weight multiplied through (zero edges
  /// have no children; their restriction is zero).
  vEdge childOf(const vEdge& e, std::size_t k, [[maybe_unused]] Qubit level) {
    if (e.w.exactlyZero()) {
      return vEdge::zero();
    }
    assert(!e.isTerminal() && e.p->v == level &&
           "applyGate: state not fully expanded");
    return compose(e.p->e[k], e.w);
  }

  /// m * e with exact-one elision and ~zero dropping, mirroring multiply2's
  /// term handling so weights land on the same table entries.
  vEdge scale(const ComplexValue& m, const vEdge& e) {
    if (e.w.exactlyZero() || m.approximatelyZero(tol)) {
      return vEdge::zero();
    }
    if (m.exactlyOne()) {
      return e;
    }
    const ComplexValue w = m * e.w.toValue();
    if (w.approximatelyZero(tol)) {
      return vEdge::zero();
    }
    return {e.p, p.lookup(w)};
  }

  /// Edge weight composed onto a (weight-canonical) node result.
  vEdge compose(const vEdge& nodeResult, const Complex& w) {
    if (nodeResult.w.exactlyZero()) {
      return vEdge::zero();
    }
    if (w.exactlyOne()) {
      return nodeResult;
    }
    if (nodeResult.w.exactlyOne()) {
      // Both weights are canonical: 1 * w is value-exact and
      // lookup(val(w)) == w, so the multiply and the lookup are elided. A
      // canonical non-zero weight never falls in the zero window.
      return {nodeResult.p, w};
    }
    // Both weights canonical and non-trivial: go through the package's
    // weight-product memo (same multiply + zero-window + intern sequence,
    // with the cache in front).
    const Complex product = p.mulWeightsCached(nodeResult.w, w);
    if (product.exactlyZero()) {
      return vEdge::zero();
    }
    return {nodeResult.p, product};
  }

  Package& p;
  const GateMatrix& mat;
  Qubit target;
  double tol;
  std::vector<Polarity>& polarity;
  QubitControls& below; ///< controls below the target, descending
  ScratchMemo<const vNode*, vEdge, NodePtrHash>& downMemo;
  ScratchMemo<SpliceKey, vEdge, SpliceKeyHash>& spliceMemo;
};

} // namespace

vEdge Package::applyGate(const GateMatrix& mat, Qubit target, const vEdge& v) {
  return applyGate(mat, target, QubitControls{}, v);
}

vEdge Package::applyGate(const GateMatrix& mat, Qubit target,
                         const QubitControls& controls, const vEdge& v) {
  const detail::DDOpSpan span("applyGate");
  if (v.isTerminal()) {
    throw std::invalid_argument("applyGate: terminal state has no qubits");
  }
  if (target < 0 || target > v.p->v) {
    throw std::invalid_argument("applyGate: target outside the state");
  }
  QubitControls ctrls = controls;
  std::sort(ctrls.begin(), ctrls.end());
  for (std::size_t k = 0; k < ctrls.size(); ++k) {
    const Qubit q = ctrls[k].qubit;
    if (q < 0 || q > v.p->v || q == target ||
        (k > 0 && ctrls[k - 1].qubit == q)) {
      throw std::invalid_argument("applyGate: invalid control qubit");
    }
  }
  if (v.w.exactlyZero()) {
    return vEdge::zero();
  }

  const double tol = tolerance();
  if (mat[1].approximatelyZero(tol) && mat[2].approximatelyZero(tol)) {
    ++applyCounters.diagonal;
  } else if (mat[0].approximatelyZero(tol) && mat[3].approximatelyZero(tol)) {
    ++applyCounters.permutation;
  } else {
    ++applyCounters.generic;
  }
  QDD_OBS_COUNTER("dd.apply.fast", applyCounters.fast());

  static thread_local ApplyScratch scratch;
  ApplyCtx ctx(*this, mat, target, ctrls, v.p->v, scratch);
  const vEdge r = ctx.run(v.p);
  if (r.w.exactlyZero()) {
    return vEdge::zero();
  }
  const Complex w = mulWeights(r.w, v.w);
  if (w.exactlyZero()) {
    return vEdge::zero();
  }
  return {r.p, w};
}

vEdge Package::applySwap(Qubit t1, Qubit t2, const QubitControls& controls,
                         const vEdge& v) {
  if (t1 == t2) {
    throw std::invalid_argument("applySwap: identical targets");
  }
  // Same decomposition as makeSWAPDD — SWAP = CX(t1->t2) . CX(t2->t1) .
  // CX(t1->t2) with the extra controls on the middle CX — so the result
  // matches multiply(makeSWAPDD(...), v) node for node. Each CX is a pure
  // child splice.
  const vEdge a = applyGate(X_MAT, t2, {{t1, true}}, v);
  QubitControls middleControls = controls;
  middleControls.push_back({t2, true});
  const vEdge b = applyGate(X_MAT, t1, middleControls, a);
  return applyGate(X_MAT, t2, {{t1, true}}, b);
}

} // namespace qdd
