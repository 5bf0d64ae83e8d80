#include "DDOpSpan.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/obs/Obs.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

namespace qdd {

namespace detail {
thread_local int ddOpDepth = 0;
} // namespace detail

using detail::DDOpSpan;

// --- weight products ---------------------------------------------------------

namespace {

/// Deterministic operand order for the weight-product memos. Complex
/// multiplication commutes bit-exactly — every partial product is a single
/// IEEE multiply, and the swap only exchanges the two addends of one IEEE
/// addition — so mirrored queries may share a cache slot.
bool weightOrderedAfter(const Complex& a, const Complex& b) noexcept {
  const auto ar = reinterpret_cast<std::uintptr_t>(a.r);
  const auto br = reinterpret_cast<std::uintptr_t>(b.r);
  if (ar != br) {
    return ar > br;
  }
  return reinterpret_cast<std::uintptr_t>(a.i) >
         reinterpret_cast<std::uintptr_t>(b.i);
}

} // namespace

Complex Package::mulWeightsCached(const Complex& a, const Complex& b) {
  const bool swap = weightOrderedAfter(a, b);
  const Complex& l = swap ? b : a;
  const Complex& r = swap ? a : b;
  if (computeTablesEnabled) {
    Complex hit;
    if (mulWeightTable.lookup(l, r, hit)) {
      return hit;
    }
  }
  const ComplexValue w = l.toValue() * r.toValue();
  const Complex out =
      w.approximatelyZero(tolerance()) ? Complex::zero : lookup(w);
  if (computeTablesEnabled) {
    mulWeightTable.insert(l, r, out, generation);
  }
  return out;
}

Complex Package::mulWeights(const Complex& a, const Complex& b) {
  if (a.exactlyOne()) {
    return b;
  }
  if (b.exactlyOne()) {
    return a;
  }
  return mulWeightsCached(a, b);
}

Complex Package::mulWeights3(const Complex& a, const Complex& b,
                             const Complex& c) {
  const bool aOne = a.exactlyOne();
  const bool bOne = b.exactlyOne();
  const bool cOne = c.exactlyOne();
  // <= 1 non-one factor: the product is that factor's canonical pointer.
  // (Multiplying by an exact one is value-exact, so this matches the value
  // path bit for bit; a canonical non-zero weight has a component entry
  // farther than `tol` from zero, so it can never fall in the zero window.)
  if (bOne && cOne) {
    return a;
  }
  if (aOne && cOne) {
    return b;
  }
  if (aOne && bOne) {
    return c;
  }
  // Elide exact-one factors from the left-associated product (a * b) * c;
  // dropping a one-factor leaves the remaining rounding sequence unchanged,
  // so the two-factor cases share the binary product memo.
  if (aOne) {
    return mulWeightsCached(b, c);
  }
  if (bOne) {
    return mulWeightsCached(a, c);
  }
  if (cOne) {
    return mulWeightsCached(a, b);
  }
  // All three factors non-trivial: memoize under the ordered triple. Only
  // the inner pair may be canonicalized — its product commutes bit-exactly —
  // while the outer multiply must keep its association, (a * b) * c.
  const bool swap = weightOrderedAfter(a, b);
  const Complex& l = swap ? b : a;
  const Complex& m = swap ? a : b;
  const WeightPair rest{m, c};
  if (computeTablesEnabled) {
    Complex hit;
    if (mulWeight3Table.lookup(l, rest, hit)) {
      return hit;
    }
  }
  const ComplexValue w = (l.toValue() * m.toValue()) * c.toValue();
  const Complex out =
      w.approximatelyZero(tolerance()) ? Complex::zero : lookup(w);
  if (computeTablesEnabled) {
    mulWeight3Table.insert(l, rest, out, generation);
  }
  return out;
}

// --- addition (paper Fig. 4, right) -----------------------------------------

vEdge Package::addVecChild(const vEdge& a, const vEdge& b, std::size_t k) {
  vEdge ea = a.p->e[k];
  if (!ea.w.exactlyZero()) {
    ea.w = mulWeights(a.w, ea.w);
  }
  vEdge eb = b.p->e[k];
  if (!eb.w.exactlyZero()) {
    eb.w = mulWeights(b.w, eb.w);
  }
  return add(ea, eb);
}

vEdge Package::add(const vEdge& x, const vEdge& y) {
  const DDOpSpan span("add");
  if (x.w.exactlyZero()) {
    return y;
  }
  if (y.w.exactlyZero()) {
    return x;
  }
  if (x.p == y.p) {
    const ComplexValue sum = x.w.toValue() + y.w.toValue();
    if (sum.approximatelyZero(tolerance())) {
      return vEdge::zero();
    }
    return {x.p, lookup(sum)};
  }
  // Addition is commutative; canonicalize the operand order for the cache.
  const vEdge& a = (x.p < y.p) ? x : y;
  const vEdge& b = (x.p < y.p) ? y : x;
  if (computeTablesEnabled) {
    vEdge cached;
    if (addVecTable.lookup(a, b, cached)) {
      return cached;
    }
  }

  assert(!a.isTerminal() && !b.isTerminal() && a.p->v == b.p->v &&
         "add: level misalignment");
  const Qubit v = a.p->v;
  std::array<vEdge, 2> r{};
  for (std::size_t k = 0; k < 2; ++k) {
    r[k] = addVecChild(a, b, k);
  }
  const vEdge result = makeVecNode(v, r);
  if (computeTablesEnabled) {
    addVecTable.insert(a, b, result, generation);
  }
  return result;
}

mEdge Package::addMatChild(const mEdge& a, const mEdge& b, Qubit va, Qubit vb,
                           Qubit v, std::size_t k) {
  mEdge ea;
  if (va == v) {
    ea = a.p->e[k];
    if (!ea.w.exactlyZero()) {
      ea.w = mulWeights(a.w, ea.w);
    }
  } else {
    ea = (k == 0 || k == 3) ? a : mEdge::zero();
  }
  mEdge eb;
  if (vb == v) {
    eb = b.p->e[k];
    if (!eb.w.exactlyZero()) {
      eb.w = mulWeights(b.w, eb.w);
    }
  } else {
    eb = (k == 0 || k == 3) ? b : mEdge::zero();
  }
  return add(ea, eb);
}

mEdge Package::add(const mEdge& x, const mEdge& y) {
  const DDOpSpan span("add");
  if (x.w.exactlyZero()) {
    return y;
  }
  if (y.w.exactlyZero()) {
    return x;
  }
  if (x.p == y.p) {
    const ComplexValue sum = x.w.toValue() + y.w.toValue();
    if (sum.approximatelyZero(tolerance())) {
      return mEdge::zero();
    }
    return {x.p, lookup(sum)};
  }
  const mEdge& a = (x.p < y.p) ? x : y;
  const mEdge& b = (x.p < y.p) ? y : x;
  if (computeTablesEnabled) {
    mEdge cached;
    if (addMatTable.lookup(a, b, cached)) {
      return cached;
    }
  }

  // Align the operands at the higher of the two levels. An operand whose
  // node sits below that level (or is terminal) is an implicit identity
  // there: its virtual successors are [a, 0, 0, a]. Both-terminal operands
  // never reach this point (x.p == y.p is handled above).
  const Qubit va = a.isTerminal() ? TERMINAL_LEVEL : a.p->v;
  const Qubit vb = b.isTerminal() ? TERMINAL_LEVEL : b.p->v;
  const Qubit v = std::max(va, vb);
  assert(v >= 0 && "add: two terminal operands with distinct nodes");
  std::array<mEdge, 4> r{};
  for (std::size_t k = 0; k < 4; ++k) {
    r[k] = addMatChild(a, b, va, vb, v, k);
  }
  const mEdge result = makeMatNode(v, r);
  if (computeTablesEnabled) {
    addMatTable.insert(a, b, result, generation);
  }
  return result;
}

// --- multiplication (paper Ex. 9 / Fig. 4) ----------------------------------

vEdge Package::multiply(const mEdge& x, const vEdge& y) {
  const DDOpSpan span("multiply");
  if (x.w.exactlyZero() || y.w.exactlyZero()) {
    return vEdge::zero();
  }
  const vEdge r = multiply2(x.p, y.p);
  if (r.w.exactlyZero()) {
    return vEdge::zero();
  }
  const Complex w = mulWeights3(x.w, y.w, r.w);
  if (w.exactlyZero()) {
    return vEdge::zero();
  }
  return {r.p, w};
}

vEdge Package::multVecChildSum(mNode* x, vNode* y, bool xAligned,
                               std::size_t i) {
  vEdge sum = vEdge::zero();
  for (std::size_t j = 0; j < 2; ++j) {
    const mEdge xe = xAligned ? x->e[2 * i + j]
                              : (i == j ? mEdge{x, Complex::one}
                                        : mEdge::zero());
    const vEdge& ye = y->e[j];
    if (xe.w.exactlyZero() || ye.w.exactlyZero()) {
      continue;
    }
    vEdge m = multiply2(xe.p, ye.p);
    if (m.w.exactlyZero()) {
      continue;
    }
    const Complex mw = mulWeights3(m.w, xe.w, ye.w);
    if (mw.exactlyZero()) {
      continue;
    }
    const vEdge term{m.p, mw};
    sum = sum.w.exactlyZero() ? term : add(sum, term);
  }
  return sum;
}

vEdge Package::multiply2(mNode* x, vNode* y) {
  if (x->isTerminal()) {
    // Terminal matrix = identity on every remaining level: U|phi> = |phi>.
    return y->isTerminal() ? vEdge::one() : vEdge{y, Complex::one};
  }
  assert(!y->isTerminal() && x->v <= y->v && "multiply: level misalignment");
  if (computeTablesEnabled) {
    vEdge cached;
    if (multMatVecTable.lookup(x, y, cached)) {
      return cached;
    }
  }

  // The state is always fully expanded, so its root level sets the pace;
  // when the matrix skips this level it acts as identity here and its
  // virtual successors are [x, 0, 0, x] with weight one.
  const Qubit v = y->v;
  const bool xAligned = x->v == v;
  if (computeTablesEnabled && xAligned) {
    // Warm the child pairs' compute-table lines before descending: while the
    // first recursion runs, the remaining slots stream in.
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        const mEdge& xe = x->e[2 * i + j];
        const vEdge& ye = y->e[j];
        if (!xe.w.exactlyZero() && !ye.w.exactlyZero() &&
            !xe.p->isTerminal()) {
          multMatVecTable.prefetch(xe.p, ye.p);
        }
      }
    }
  }
  std::array<vEdge, 2> r{};
  for (std::size_t i = 0; i < 2; ++i) {
    r[i] = multVecChildSum(x, y, xAligned, i);
  }
  const vEdge result = makeVecNode(v, r);
  if (computeTablesEnabled) {
    multMatVecTable.insert(x, y, result, generation);
  }
  return result;
}

mEdge Package::multiply(const mEdge& x, const mEdge& y) {
  const DDOpSpan span("multiply");
  if (x.w.exactlyZero() || y.w.exactlyZero()) {
    return mEdge::zero();
  }
  const mEdge r = multiply2(x.p, y.p);
  if (r.w.exactlyZero()) {
    return mEdge::zero();
  }
  const Complex w = mulWeights3(x.w, y.w, r.w);
  if (w.exactlyZero()) {
    return mEdge::zero();
  }
  return {r.p, w};
}

mEdge Package::multMatChildSum(mNode* x, mNode* y, bool xAligned,
                               bool yAligned, std::size_t i, std::size_t k) {
  mEdge sum = mEdge::zero();
  for (std::size_t j = 0; j < 2; ++j) {
    const mEdge xe = xAligned ? x->e[2 * i + j]
                              : (i == j ? mEdge{x, Complex::one}
                                        : mEdge::zero());
    const mEdge ye = yAligned ? y->e[2 * j + k]
                              : (j == k ? mEdge{y, Complex::one}
                                        : mEdge::zero());
    if (xe.w.exactlyZero() || ye.w.exactlyZero()) {
      continue;
    }
    mEdge m = multiply2(xe.p, ye.p);
    if (m.w.exactlyZero()) {
      continue;
    }
    const Complex mw = mulWeights3(m.w, xe.w, ye.w);
    if (mw.exactlyZero()) {
      continue;
    }
    const mEdge term{m.p, mw};
    sum = sum.w.exactlyZero() ? term : add(sum, term);
  }
  return sum;
}

mEdge Package::multiply2(mNode* x, mNode* y) {
  if (x->isTerminal() || y->isTerminal()) {
    // Terminal operand = identity on every remaining level, which is the
    // multiplicative unit: the product is the other operand.
    if (x->isTerminal() && y->isTerminal()) {
      return mEdge::one();
    }
    return x->isTerminal() ? mEdge{y, Complex::one} : mEdge{x, Complex::one};
  }
  if (computeTablesEnabled) {
    mEdge cached;
    if (multMatMatTable.lookup(x, y, cached)) {
      return cached;
    }
  }

  // Align at the higher level; the lower operand acts as identity there
  // (virtual successors [e, 0, 0, e]). The result depends only on the two
  // nodes, so the (x, y)-keyed compute table stays context-free.
  const Qubit v = std::max(x->v, y->v);
  const bool xAligned = x->v == v;
  const bool yAligned = y->v == v;
  if (computeTablesEnabled && xAligned && yAligned) {
    // Warm the child pairs' compute-table lines before descending.
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t k = 0; k < 2; ++k) {
          const mEdge& xe = x->e[2 * i + j];
          const mEdge& ye = y->e[2 * j + k];
          if (!xe.w.exactlyZero() && !ye.w.exactlyZero() &&
              !xe.p->isTerminal() && !ye.p->isTerminal()) {
            multMatMatTable.prefetch(xe.p, ye.p);
          }
        }
      }
    }
  }
  std::array<mEdge, 4> r{};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      r[2 * i + k] = multMatChildSum(x, y, xAligned, yAligned, i, k);
    }
  }
  const mEdge result = makeMatNode(v, r);
  if (computeTablesEnabled) {
    multMatMatTable.insert(x, y, result, generation);
  }
  return result;
}

// --- tensor product (paper Ex. 8 / Fig. 3) ----------------------------------

namespace {
/// Terminal replacement: walk `top`, re-label its levels `shift` levels up,
/// and replace its (non-zero) terminal edges by the root of `bottom`.
template <class Node, class MakeNode, class Lookup>
Edge<Node> kronRec(const Edge<Node>& topEdge, Node* bottomRoot, Qubit shift,
                   std::unordered_map<const Node*, Edge<Node>>& memo,
                   MakeNode&& makeNode, Lookup&& lookup) {
  if (topEdge.w.exactlyZero()) {
    return Edge<Node>::zero();
  }
  if (topEdge.isTerminal()) {
    return {bottomRoot, topEdge.w};
  }
  // The memo stores the replacement edge per *node*; the incoming edge
  // weight is composed on top afterwards.
  Edge<Node> nodeResult;
  if (const auto it = memo.find(topEdge.p); it != memo.end()) {
    nodeResult = it->second;
  } else {
    std::array<Edge<Node>, RADIX<Node>> children{};
    for (std::size_t k = 0; k < RADIX<Node>; ++k) {
      children[k] = kronRec(topEdge.p->e[k], bottomRoot, shift, memo, makeNode,
                            lookup);
    }
    nodeResult = makeNode(static_cast<Qubit>(topEdge.p->v + shift), children);
    memo.emplace(topEdge.p, nodeResult);
  }
  if (topEdge.w.exactlyOne()) {
    return nodeResult;
  }
  return {nodeResult.p, lookup(nodeResult.w.toValue() * topEdge.w.toValue())};
}
} // namespace

mEdge Package::kron(const mEdge& top, const mEdge& bottom) {
  return kron(top, bottom,
              bottom.isTerminal() ? 0
                                  : static_cast<std::size_t>(bottom.p->v) + 1);
}

mEdge Package::kron(const mEdge& top, const mEdge& bottom,
                    std::size_t bottomQubits) {
  const DDOpSpan span("kron");
  if (top.w.exactlyZero() || bottom.w.exactlyZero()) {
    return mEdge::zero();
  }
  if (!bottom.isTerminal() &&
      static_cast<std::size_t>(bottom.p->v) >= bottomQubits) {
    throw std::invalid_argument("kron: bottom exceeds its declared span");
  }
  const auto shift = static_cast<Qubit>(bottomQubits);
  if (!top.isTerminal()) {
    resize(static_cast<std::size_t>(top.p->v + shift) + 1);
  }
  std::unordered_map<const mNode*, mEdge> memo;
  const mEdge r = kronRec(
      mEdge{top.p, Complex::one}, bottom.p, shift, memo,
      [this](Qubit v, const std::array<mEdge, 4>& es) {
        return makeMatNode(v, es);
      },
      [this](const ComplexValue& c) { return lookup(c); });
  const ComplexValue w = top.w.toValue() * bottom.w.toValue() * r.w.toValue();
  if (w.approximatelyZero(tolerance())) {
    return mEdge::zero();
  }
  return {r.p, lookup(w)};
}

vEdge Package::kron(const vEdge& top, const vEdge& bottom) {
  const DDOpSpan span("kron");
  if (top.w.exactlyZero() || bottom.w.exactlyZero()) {
    return vEdge::zero();
  }
  const Qubit shift =
      bottom.isTerminal() ? 0 : static_cast<Qubit>(bottom.p->v + 1);
  if (!top.isTerminal()) {
    resize(static_cast<std::size_t>(top.p->v + shift) + 1);
  }
  std::unordered_map<const vNode*, vEdge> memo;
  const vEdge r = kronRec(
      vEdge{top.p, Complex::one}, bottom.p, shift, memo,
      [this](Qubit v, const std::array<vEdge, 2>& es) {
        return makeVecNode(v, es);
      },
      [this](const ComplexValue& c) { return lookup(c); });
  const ComplexValue w = top.w.toValue() * bottom.w.toValue() * r.w.toValue();
  if (w.approximatelyZero(tolerance())) {
    return vEdge::zero();
  }
  return {r.p, lookup(w)};
}

// --- conjugate transpose -----------------------------------------------------

mEdge Package::conjugateTranspose(const mEdge& a) {
  const DDOpSpan span("conjugateTranspose");
  if (a.w.exactlyZero()) {
    return mEdge::zero();
  }
  const ComplexValue wConj = a.w.toValue().conj();
  if (a.isTerminal()) {
    return mEdge::terminal(lookup(wConj));
  }
  if (computeTablesEnabled) {
    mEdge cached;
    if (conjTransTable.lookup(a.p, a.p, cached)) {
      return {cached.p, lookup(wConj * cached.w.toValue())};
    }
  }
  // transpose: swap the off-diagonal successors; conjugate recursively
  std::array<mEdge, 4> r{};
  r[0] = conjugateTranspose({a.p->e[0].p, a.p->e[0].w});
  r[1] = conjugateTranspose({a.p->e[2].p, a.p->e[2].w});
  r[2] = conjugateTranspose({a.p->e[1].p, a.p->e[1].w});
  r[3] = conjugateTranspose({a.p->e[3].p, a.p->e[3].w});
  const mEdge result = makeMatNode(a.p->v, r);
  if (computeTablesEnabled) {
    conjTransTable.insert(a.p, a.p, result, generation);
  }
  return {result.p, lookup(wConj * result.w.toValue())};
}

// --- inner product / fidelity -------------------------------------------------

ComplexValue Package::innerProduct(const vEdge& x, const vEdge& y) {
  const DDOpSpan span("innerProduct");
  if (x.w.exactlyZero() || y.w.exactlyZero()) {
    return {0., 0.};
  }
  const ComplexValue sub = innerProduct2(x.p, y.p);
  return x.w.toValue().conj() * y.w.toValue() * sub;
}

ComplexValue Package::innerProduct2(vNode* x, vNode* y) {
  if (x->isTerminal()) {
    assert(y->isTerminal() && "innerProduct: level misalignment");
    return {1., 0.};
  }
  assert(!y->isTerminal() && x->v == y->v &&
         "innerProduct: level misalignment");
  if (computeTablesEnabled) {
    ComplexValue cached;
    if (innerProductTable.lookup(x, y, cached)) {
      return cached;
    }
  }
  ComplexValue sum{0., 0.};
  for (std::size_t k = 0; k < 2; ++k) {
    const vEdge& xe = x->e[k];
    const vEdge& ye = y->e[k];
    if (xe.w.exactlyZero() || ye.w.exactlyZero()) {
      continue;
    }
    sum += xe.w.toValue().conj() * ye.w.toValue() *
           innerProduct2(xe.p, ye.p);
  }
  if (computeTablesEnabled) {
    innerProductTable.insert(x, y, sum, generation);
  }
  return sum;
}

double Package::fidelity(const vEdge& x, const vEdge& y) {
  return innerProduct(x, y).mag2();
}

// --- trace ----------------------------------------------------------------------

namespace {
/// `expect` is the level the edge leaves from minus one (i.e. the top level
/// of the sub-matrix the edge points into). Every skipped identity level
/// doubles the trace: tr(I_k (x) M) = 2^k * tr(M).
ComplexValue traceRec(const mEdge& e, Qubit expect,
                      std::unordered_map<const mNode*, ComplexValue>& memo) {
  if (e.w.exactlyZero()) {
    return {0., 0.};
  }
  const Qubit v = e.isTerminal() ? TERMINAL_LEVEL : e.p->v;
  assert(v <= expect && "trace: node above its expected level");
  const double factor = std::ldexp(1., expect - v);
  if (e.isTerminal()) {
    // terminal = w * I on the remaining `expect + 1` levels
    return e.w.toValue() * factor;
  }
  ComplexValue sub;
  if (const auto it = memo.find(e.p); it != memo.end()) {
    sub = it->second;
  } else {
    sub = traceRec(e.p->e[0], static_cast<Qubit>(v - 1), memo) +
          traceRec(e.p->e[3], static_cast<Qubit>(v - 1), memo);
    memo.emplace(e.p, sub);
  }
  return e.w.toValue() * factor * sub;
}
} // namespace

ComplexValue Package::trace(const mEdge& a) {
  return trace(a, a.isTerminal() ? 0
                                 : static_cast<std::size_t>(a.p->v) + 1);
}

ComplexValue Package::trace(const mEdge& a, std::size_t nq) {
  if (!a.isTerminal() && static_cast<std::size_t>(a.p->v) >= nq) {
    throw std::invalid_argument("trace: matrix exceeds the declared span");
  }
  std::unordered_map<const mNode*, ComplexValue> memo;
  return traceRec(a, static_cast<Qubit>(nq) - 1, memo);
}

// --- element access / export --------------------------------------------------

ComplexValue Package::getValueByIndex(const vEdge& e, std::uint64_t i) {
  ComplexValue amp = e.w.toValue();
  const vNode* p = e.p;
  while (!p->isTerminal()) {
    if (amp.exactlyZero()) {
      return {0., 0.};
    }
    // Levels >= 64 are out of range for a 64-bit index: that bit is 0.
    const auto shift = static_cast<unsigned>(p->v);
    const std::size_t bit = shift < 64U ? (i >> shift) & 1ULL : 0ULL;
    const vEdge& child = p->e[bit];
    amp *= child.w.toValue();
    p = child.p;
  }
  return amp;
}

ComplexValue Package::getMatrixEntry(const mEdge& e, std::uint64_t row,
                                     std::uint64_t col) {
  ComplexValue amp = e.w.toValue();
  const mNode* p = e.p;
  // Bits addressing a skipped identity level must agree between row and
  // column — the off-diagonal blocks of the implicit identity are zero.
  const auto identityBitsAgree = [&](Qubit below, Qubit above) {
    // checks bits in the open interval (below, above)
    for (Qubit lev = static_cast<Qubit>(below + 1); lev < above; ++lev) {
      const auto shift = static_cast<unsigned>(lev);
      if (shift < 64U && (((row ^ col) >> shift) & 1ULL) != 0ULL) {
        return false;
      }
    }
    return true;
  };
  const Qubit top = p->isTerminal() ? TERMINAL_LEVEL : p->v;
  if (!identityBitsAgree(top, 64)) {
    return {0., 0.};
  }
  while (!p->isTerminal()) {
    if (amp.exactlyZero()) {
      return {0., 0.};
    }
    const auto shift = static_cast<unsigned>(p->v);
    const std::size_t rbit = shift < 64U ? (row >> shift) & 1ULL : 0ULL;
    const std::size_t cbit = shift < 64U ? (col >> shift) & 1ULL : 0ULL;
    const mEdge& child = p->e[2 * rbit + cbit];
    const Qubit childTop = child.p->isTerminal() ? TERMINAL_LEVEL : child.p->v;
    if (!identityBitsAgree(childTop, p->v)) {
      return {0., 0.};
    }
    amp *= child.w.toValue();
    p = child.p;
  }
  return amp;
}

void Package::getVectorRec(const vEdge& e, ComplexValue amp,
                           std::uint64_t index,
                           std::vector<std::complex<double>>& out) {
  const ComplexValue w = amp * e.w.toValue();
  if (w.exactlyZero()) {
    return;
  }
  if (e.isTerminal()) {
    out[index] = w.toStdComplex();
    return;
  }
  const auto v = static_cast<unsigned>(e.p->v);
  getVectorRec(e.p->e[0], w, index, out);
  getVectorRec(e.p->e[1], w, index | (1ULL << v), out);
}

std::vector<std::complex<double>> Package::getVector(const vEdge& e) {
  if (e.isTerminal()) {
    throw std::invalid_argument("getVector: terminal edge has no qubits");
  }
  const auto n = static_cast<std::size_t>(e.p->v) + 1;
  if (n > 26) {
    throw std::invalid_argument("getVector: state too large for dense export");
  }
  std::vector<std::complex<double>> out(1ULL << n, {0., 0.});
  getVectorRec(e, ComplexValue{1., 0.}, 0, out);
  return out;
}

void Package::getMatrixRec(const mEdge& e, ComplexValue amp, std::uint64_t row,
                           std::uint64_t col, std::uint64_t dim, Qubit expect,
                           std::vector<std::complex<double>>& out) {
  if (e.w.exactlyZero() || amp.exactlyZero()) {
    return;
  }
  const Qubit v = e.isTerminal() ? TERMINAL_LEVEL : e.p->v;
  if (v < expect) {
    // `expect` is a skipped identity level: expand its diagonal explicitly.
    const std::uint64_t bit = 1ULL << static_cast<unsigned>(expect);
    getMatrixRec(e, amp, row, col, dim, static_cast<Qubit>(expect - 1), out);
    getMatrixRec(e, amp, row | bit, col | bit, dim,
                 static_cast<Qubit>(expect - 1), out);
    return;
  }
  const ComplexValue w = amp * e.w.toValue();
  if (w.exactlyZero()) {
    return;
  }
  if (e.isTerminal()) {
    out[row * dim + col] = w.toStdComplex();
    return;
  }
  const auto b = 1ULL << static_cast<unsigned>(v);
  const auto below = static_cast<Qubit>(v - 1);
  getMatrixRec(e.p->e[0], w, row, col, dim, below, out);
  getMatrixRec(e.p->e[1], w, row, col | b, dim, below, out);
  getMatrixRec(e.p->e[2], w, row | b, col, dim, below, out);
  getMatrixRec(e.p->e[3], w, row | b, col | b, dim, below, out);
}

std::vector<std::complex<double>> Package::getMatrix(const mEdge& e) {
  if (e.isTerminal()) {
    throw std::invalid_argument("getMatrix: terminal edge has no qubits");
  }
  return getMatrix(e, static_cast<std::size_t>(e.p->v) + 1);
}

std::vector<std::complex<double>> Package::getMatrix(const mEdge& e,
                                                     std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("getMatrix: need at least one qubit");
  }
  if (!e.isTerminal() && static_cast<std::size_t>(e.p->v) >= n) {
    throw std::invalid_argument("getMatrix: matrix exceeds the declared span");
  }
  if (n > 13) {
    throw std::invalid_argument("getMatrix: matrix too large for dense export");
  }
  const std::uint64_t dim = 1ULL << n;
  std::vector<std::complex<double>> out(dim * dim, {0., 0.});
  getMatrixRec(e, ComplexValue{1., 0.}, 0, 0, dim, static_cast<Qubit>(n - 1),
               out);
  return out;
}

double Package::norm(const vEdge& e) {
  std::map<vNode*, double> cache;
  return e.w.toValue().mag2() * nodeNorm(e.p, cache);
}

// --- partial trace (paper Sec. IV-B: reset "corresponds to taking the
// --- partial trace of the whole state") ---------------------------------------

mEdge Package::partialTrace(const mEdge& a,
                            const std::vector<bool>& eliminate) {
  const DDOpSpan span("partialTrace");
  const auto rootSpan =
      a.isTerminal() ? 0 : static_cast<std::size_t>(a.p->v) + 1;
  // The mask declares the span: skipped top levels are real (identity)
  // qubits and tracing one of them out doubles the result.
  const std::size_t n = eliminate.size();
  if (rootSpan > n) {
    throw std::invalid_argument("partialTrace: eliminate mask too short");
  }
  if (n == 0) {
    return a;
  }
  // new level of each kept qubit = number of kept qubits below it
  std::vector<Qubit> levelMap(n, TERMINAL_LEVEL);
  Qubit next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!eliminate[v]) {
      levelMap[v] = next++;
    }
  }
  std::map<const mNode*, mEdge> memo;
  return partialTraceRec(a, static_cast<Qubit>(n - 1), eliminate, levelMap,
                         memo);
}

mEdge Package::partialTraceRec(const mEdge& a, Qubit expect,
                               const std::vector<bool>& eliminate,
                               const std::vector<Qubit>& levelMap,
                               std::map<const mNode*, mEdge>& memo) {
  if (a.w.exactlyZero()) {
    return mEdge::zero();
  }
  const Qubit v = a.isTerminal() ? TERMINAL_LEVEL : a.p->v;
  // Skipped identity levels on the way down: each eliminated one is
  // tr(I_1) = 2; kept ones stay implicit (identity is position-independent,
  // so the level remap is automatic).
  double factor = 1.;
  for (Qubit lev = expect; lev > v; --lev) {
    if (eliminate[static_cast<std::size_t>(lev)]) {
      factor *= 2.;
    }
  }
  if (a.isTerminal()) {
    return mEdge::terminal(lookup(a.w.toValue() * factor));
  }
  mEdge nodeResult;
  if (const auto it = memo.find(a.p); it != memo.end()) {
    nodeResult = it->second;
  } else {
    const auto lv = static_cast<std::size_t>(v);
    const auto below = static_cast<Qubit>(v - 1);
    if (eliminate[lv]) {
      // trace this level out: sum the diagonal blocks
      const mEdge d0 =
          partialTraceRec(a.p->e[0], below, eliminate, levelMap, memo);
      const mEdge d3 =
          partialTraceRec(a.p->e[3], below, eliminate, levelMap, memo);
      nodeResult = add(d0, d3);
    } else {
      std::array<mEdge, 4> children{};
      for (std::size_t k = 0; k < 4; ++k) {
        children[k] =
            partialTraceRec(a.p->e[k], below, eliminate, levelMap, memo);
      }
      nodeResult = makeMatNode(levelMap[lv], children);
    }
    memo.emplace(a.p, nodeResult);
  }
  if (nodeResult.w.exactlyZero()) {
    return mEdge::zero();
  }
  if (a.w.exactlyOne() && factor == 1.) {
    return nodeResult;
  }
  return {nodeResult.p,
          lookup(nodeResult.w.toValue() * a.w.toValue() * factor)};
}

// --- expectation values ---------------------------------------------------------

ComplexValue Package::expectationValue(const mEdge& u, const vEdge& phi) {
  return innerProduct(phi, multiply(u, phi));
}

// --- qubit permutations ----------------------------------------------------------

namespace {
/// Decomposes `permutation` into transpositions and reports each via `swap`.
/// permutation[k] = original qubit that should end up at position k.
template <class SwapFn>
void applyPermutationAsSwaps(const std::vector<Qubit>& permutation,
                             SwapFn&& swap) {
  const auto n = permutation.size();
  // current[k] = original qubit currently sitting at position k
  std::vector<Qubit> current(n);
  for (std::size_t k = 0; k < n; ++k) {
    current[k] = static_cast<Qubit>(k);
  }
  for (std::size_t target = 0; target < n; ++target) {
    if (current[target] == permutation[target]) {
      continue;
    }
    std::size_t from = target;
    for (std::size_t k = target + 1; k < n; ++k) {
      if (current[k] == permutation[target]) {
        from = k;
        break;
      }
    }
    swap(static_cast<Qubit>(target), static_cast<Qubit>(from));
    std::swap(current[target], current[from]);
  }
}

std::vector<Qubit> validatePermutation(const std::vector<Qubit>& permutation,
                                       std::size_t n) {
  if (permutation.size() != n) {
    throw std::invalid_argument("permuteQubits: permutation size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (const Qubit q : permutation) {
    if (q < 0 || static_cast<std::size_t>(q) >= n || seen[static_cast<std::size_t>(q)]) {
      throw std::invalid_argument("permuteQubits: not a permutation");
    }
    seen[static_cast<std::size_t>(q)] = true;
  }
  return permutation;
}
} // namespace

vEdge Package::permuteQubits(const vEdge& e,
                             const std::vector<Qubit>& permutation) {
  if (e.isTerminal()) {
    return e;
  }
  const auto n = static_cast<std::size_t>(e.p->v) + 1;
  validatePermutation(permutation, n);
  vEdge result = e;
  applyPermutationAsSwaps(permutation, [&](Qubit a, Qubit b) {
    result = multiply(makeSWAPDD(n, {}, a, b), result);
  });
  return result;
}

mEdge Package::permuteQubits(const mEdge& e,
                             const std::vector<Qubit>& permutation) {
  if (e.isTerminal()) {
    // a scaled identity: invariant under relabeling
    return e;
  }
  const auto rootSpan = static_cast<std::size_t>(e.p->v) + 1;
  // The permutation's size declares the span; it may exceed the root level
  // (skipped top levels permute trivially).
  const std::size_t n = permutation.size();
  if (n < rootSpan) {
    throw std::invalid_argument("permuteQubits: permutation size mismatch");
  }
  validatePermutation(permutation, n);
  mEdge result = e;
  applyPermutationAsSwaps(permutation, [&](Qubit a, Qubit b) {
    const mEdge swap = makeSWAPDD(n, {}, a, b);
    // conjugate: P U P^T with P a (self-inverse) SWAP
    result = multiply(swap, multiply(result, swap));
  });
  return result;
}

} // namespace qdd
