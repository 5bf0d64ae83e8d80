#pragma once

#include "qdd/complex/Complex.hpp"
#include "qdd/complex/ComplexValue.hpp"
#include "qdd/dd/ComputeTable.hpp"
#include "qdd/dd/GateMatrix.hpp"
#include "qdd/dd/Node.hpp"
#include "qdd/dd/UniqueTable.hpp"
#include "qdd/mem/MemoryManager.hpp"
#include "qdd/mem/StatsRegistry.hpp"

#include <array>
#include <complex>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace qdd {

/// Normalization scheme applied when creating nodes (paper Sec. III-A and
/// footnote 3).
enum class NormalizationScheme : std::uint8_t {
  /// Divide outgoing weights by the first weight of largest magnitude.
  /// This is the scheme used throughout the paper's figures (e.g. the
  /// Bell-state DD of Fig. 2(a) with root weight 1/sqrt(2) and inner
  /// weights 1).
  Largest,
  /// Divide by the 2-norm of the outgoing weights (and make the first
  /// non-zero weight real non-negative), so that squared edge weights are
  /// directly branch probabilities — enabling the sampling scheme of [16]
  /// (footnote 3). Applied to vector nodes only; matrices always use
  /// `Largest`.
  Norm,
};

/// The decision-diagram package: unique tables, compute tables, and the
/// complex-number table, together with all DD construction and manipulation
/// operations the paper describes (Sec. III) — representation of states and
/// matrices, tensor products (Fig. 3), addition and matrix multiplication
/// (Fig. 4), measurement/sampling ([16]), and the canonicity that underlies
/// equivalence checking (Sec. III-C).
///
/// Matrix DDs skip identity levels (arXiv:2406.11959): a node whose
/// successors would be [a, 0, 0, a] is never built, so a node at level `v`
/// reached from level `u > v + 1` represents I^(u-v-1) (x) M, and a terminal
/// matrix edge represents w * I on all remaining levels. Vector DDs are
/// always fully expanded.
class Package {
public:
  explicit Package(std::size_t nqubits,
                   NormalizationScheme scheme = NormalizationScheme::Largest,
                   double tolerance = RealTable::DEFAULT_TOLERANCE);

  Package(const Package&) = delete;
  Package& operator=(const Package&) = delete;

  [[nodiscard]] std::size_t qubits() const noexcept { return nqubits; }
  /// Grows the package to support at least `n` qubits.
  void resize(std::size_t n);
  /// Shrinks the package to exactly `n` qubits, releasing all nodes at the
  /// removed levels. No live user-held edge may still point into the removed
  /// levels. Advances the allocation generation so stale compute-cache
  /// entries are rejected lazily, then forces a garbage collection.
  void shrink(std::size_t n);

  [[nodiscard]] double tolerance() const noexcept { return cTable.tolerance(); }
  [[nodiscard]] NormalizationScheme normalizationScheme() const noexcept {
    return scheme;
  }
  ComplexTable& complexTable() noexcept { return cTable; }

  /// Enables/disables operation memoization (footnote 4). Intended for
  /// ablation studies only — see bench_ablation_tables.
  void setComputeTablesEnabled(bool enabled) noexcept {
    computeTablesEnabled = enabled;
  }
  [[nodiscard]] bool computeTablesAreEnabled() const noexcept {
    return computeTablesEnabled;
  }

  // --- node construction (normalizing) ---------------------------------

  /// Creates a canonical vector node at level `v` from the given successor
  /// edges, applying the active normalization scheme. Returns the normalized
  /// edge pointing to the (hash-consed) node.
  vEdge makeVecNode(Qubit v, const std::array<vEdge, 2>& edges);
  /// Creates a canonical matrix node at level `v`; successor order is
  /// [U00, U01, U10, U11] as in the paper (Ex. 7).
  mEdge makeMatNode(Qubit v, const std::array<mEdge, 4>& edges);

  /// Interns a complex value in this package's weight table.
  Complex lookup(const ComplexValue& c) { return cTable.lookup(c); }

  /// Canonical weight products with pointer elision: when at most one factor
  /// differs from exactly one, the product IS that factor (already interned),
  /// so both the complex multiply and the RealTable lookup are skipped.
  /// Bit-identical to the value path because RealTable entries are pairwise
  /// more than `tol` apart, hence lookup(val(X)) == X for canonical X.
  /// Non-trivial products are memoized in `mulWeightTable`, keyed on the
  /// exact tagged weight pointers; a hit replaces the complex multiply and
  /// both RealTable walks with one direct-mapped probe. Products that fall
  /// inside the tolerance window canonicalize to `Complex::zero`.
  Complex mulWeights(const Complex& a, const Complex& b);
  /// Three-factor variant (left-associated, matching `a * b * c`), memoized
  /// in `mulWeight3Table`; returns Complex::zero when the computed product
  /// falls inside the tolerance window, which callers treat as the zero
  /// edge.
  Complex mulWeights3(const Complex& a, const Complex& b, const Complex& c);
  /// Shared tail of mulWeights / mulWeights3 once exact-one factors are
  /// elided down to two non-trivial ones: canonicalizes the operand order
  /// (complex multiplication commutes bit-exactly), probes the memo, and
  /// falls back to the complex multiply + RealTable intern.
  Complex mulWeightsCached(const Complex& a, const Complex& b);

  // --- states ------------------------------------------------------------

  /// |0...0> on `n` qubits.
  vEdge makeZeroState(std::size_t n);
  /// Computational basis state |bits>, where bits[k] is the value of qubit k.
  vEdge makeBasisState(std::size_t n, const std::vector<bool>& bits);
  /// (|0...0> + |1...1>)/sqrt(2) — the generalized Bell/GHZ state.
  vEdge makeGHZState(std::size_t n);
  /// Equal superposition of all single-excitation basis states.
  vEdge makeWState(std::size_t n);
  /// Builds a DD from a dense state vector of length 2^n (n >= 1).
  vEdge makeStateFromVector(const std::vector<std::complex<double>>& vec);

  // --- matrices ------------------------------------------------------------

  /// Identity on qubits 0..n-1: the bare terminal edge of weight one, since
  /// every level is skipped.
  mEdge makeIdent(std::size_t n);
  /// DD of a single-qubit gate applied to `target` on an `n`-qubit system
  /// (the tensor-product extension of Ex. 3/Fig. 3 performed natively).
  mEdge makeGateDD(const GateMatrix& mat, std::size_t n, Qubit target);
  /// DD of a (multi-)controlled single-qubit gate.
  mEdge makeGateDD(const GateMatrix& mat, std::size_t n,
                   const QubitControls& controls, Qubit target);
  /// DD of a (controlled) SWAP of qubits `t1` and `t2`.
  mEdge makeSWAPDD(std::size_t n, const QubitControls& controls, Qubit t1,
                   Qubit t2);
  /// DD of an arbitrary two-qubit gate (row-major 4x4, with `t1` the
  /// more-significant and `t0` the less-significant matrix index qubit).
  mEdge makeTwoQubitGateDD(const TwoQubitGateMatrix& mat, std::size_t n,
                           Qubit t1, Qubit t0);
  /// Builds a DD from a dense row-major 2^n x 2^n matrix.
  mEdge makeMatrixFromDense(const std::vector<std::complex<double>>& mat,
                            std::size_t n);

  // --- direct gate application (simulation hot path) ------------------------
  //
  // Applies a (multi-)controlled single-qubit gate directly to a state DD by
  // recursing on the state, without ever constructing the gate's matrix DD or
  // touching the matrix-vector compute table. Identity levels above the
  // target are rebuilt structurally, control branches short-circuit (the
  // control-inactive part of the state is reused untouched), diagonal gates
  // (Z/S/T/P(theta)) reduce to edge-weight rescaling along the satisfied
  // path, and permutation gates (X/CX) reduce to child swaps. Results are
  // canonical and bit-identical to `multiply(makeGateDD(...), v)` — see
  // tests/test_apply.cpp and docs/DD_PRIMER.md ("Gate application & caching").
  //
  // Requirements: `v` must be a fully expanded state whose root level is at
  // least the target and every control (states built by this package always
  // are); controls must be distinct from the target.

  vEdge applyGate(const GateMatrix& mat, Qubit target, const vEdge& v);
  vEdge applyGate(const GateMatrix& mat, Qubit target,
                  const QubitControls& controls, const vEdge& v);
  /// (Controlled) SWAP of `t1` and `t2`, realized as three CX fast-path
  /// applications (pure child splices, no additions).
  vEdge applySwap(Qubit t1, Qubit t2, const QubitControls& controls,
                  const vEdge& v);

  /// How often each apply kernel fired. `fallback` counts gate applications
  /// that went through the general `multiply` recursion instead (incremented
  /// by callers via `noteApplyFallback`, e.g. for the two-qubit unitaries no
  /// kernel covers), so coverage = fast / (fast + fallback).
  [[nodiscard]] const mem::ApplyPathStats& applyPathCounters() const noexcept {
    return applyCounters;
  }
  void noteApplyFallback() noexcept { ++applyCounters.fallback; }

  // --- operations -----------------------------------------------------------

  vEdge add(const vEdge& x, const vEdge& y);
  mEdge add(const mEdge& x, const mEdge& y);
  /// Matrix-vector product U|phi> (paper Ex. 9 / Fig. 4).
  vEdge multiply(const mEdge& x, const vEdge& y);
  /// Matrix-matrix product X*Y.
  mEdge multiply(const mEdge& x, const mEdge& y);
  /// Tensor product: `top` acts on the more-significant qubits, `bottom` on
  /// the less-significant ones. Realized by terminal replacement (Ex. 8 /
  /// Fig. 3). The span of `bottom` is taken from its root level, which
  /// misses any skipped identity levels above that root.
  mEdge kron(const mEdge& top, const mEdge& bottom);
  /// Tensor product with an explicit span for `bottom`. Required for exact
  /// placement under identity skipping, where the root level of `bottom` may
  /// sit below its intended top level (e.g. kron(H, I) needs bottomQubits to
  /// know how far up to shift `top`).
  mEdge kron(const mEdge& top, const mEdge& bottom, std::size_t bottomQubits);
  vEdge kron(const vEdge& top, const vEdge& bottom);
  mEdge conjugateTranspose(const mEdge& a);
  /// <x|y>.
  ComplexValue innerProduct(const vEdge& x, const vEdge& y);
  /// |<x|y>|^2.
  double fidelity(const vEdge& x, const vEdge& y);
  /// Trace of the matrix, taking the span from the root level. Under
  /// identity skipping the root may sit below the intended system size
  /// (skipped top levels are invisible here) — prefer the explicit-span
  /// overload whenever the qubit count is known.
  ComplexValue trace(const mEdge& a);
  /// Trace of the represented 2^nq x 2^nq matrix. Skipped identity levels
  /// contribute a factor of two each: tr(I_k (x) M) = 2^k * tr(M).
  ComplexValue trace(const mEdge& a, std::size_t nq);
  /// Partial trace over the qubits marked in `eliminate` (indexed by level).
  /// The traced-out levels are removed from the diagram; the result acts on
  /// the remaining qubits (compacted downwards). This is the operation the
  /// paper invokes to describe reset semantics (Sec. IV-B).
  mEdge partialTrace(const mEdge& a, const std::vector<bool>& eliminate);
  /// <phi| U |phi>.
  ComplexValue expectationValue(const mEdge& u, const vEdge& phi);
  /// Applies a qubit permutation to a state: qubit k of the result is qubit
  /// permutation[k] of the input (realized by multiplying SWAP DDs).
  vEdge permuteQubits(const vEdge& e, const std::vector<Qubit>& permutation);
  mEdge permuteQubits(const mEdge& e, const std::vector<Qubit>& permutation);

  // --- element access / export ----------------------------------------------

  /// Amplitude <i|phi> for basis-state index i (paper: "reconstructed from
  /// the multiplication of the edge weights along the path").
  ComplexValue getValueByIndex(const vEdge& e, std::uint64_t i);
  /// Matrix entry U[row][col].
  ComplexValue getMatrixEntry(const mEdge& e, std::uint64_t row,
                              std::uint64_t col);
  /// Dense export of a state (n <= 30 guarded by assertion of vector size).
  std::vector<std::complex<double>> getVector(const vEdge& e);
  /// Dense row-major export of a matrix, span taken from the root level
  /// (see the trace overloads for the identity-skipping caveat).
  std::vector<std::complex<double>> getMatrix(const mEdge& e);
  /// Dense row-major export of the represented 2^n x 2^n matrix, expanding
  /// skipped identity levels explicitly.
  std::vector<std::complex<double>> getMatrix(const mEdge& e, std::size_t n);
  /// Squared norm <phi|phi>.
  double norm(const vEdge& e);

  // --- measurement, collapse, reset (paper Sec. IV-B) -----------------------

  /// Probability of reading |1> when measuring qubit `q`.
  double probabilityOfOne(const vEdge& e, Qubit q);
  /// Measures qubit `q`, collapses the state (updating `root` and reference
  /// counts), and returns the outcome (0/1).
  int measureOneCollapsing(vEdge& root, Qubit q, std::mt19937_64& rng);
  /// Collapses qubit `q` to the given outcome (as if that outcome had been
  /// measured). The outcome must have non-zero probability.
  void forceMeasureOne(vEdge& root, Qubit q, bool outcome);
  /// Measures all qubits; returns the result as a bitstring q_{n-1}...q_0.
  /// If `collapse`, `root` is replaced by the post-measurement basis state.
  std::string measureAll(vEdge& root, bool collapse, std::mt19937_64& rng);
  /// Non-destructive single-shot sample (the paper stresses that classical
  /// measurements "can be repeated on the same state").
  std::string sample(const vEdge& root, std::mt19937_64& rng);
  /// Repeated non-destructive sampling; returns counts per bitstring.
  std::map<std::string, std::size_t> sampleCounts(const vEdge& root,
                                                  std::size_t shots,
                                                  std::mt19937_64& rng);
  /// Resets qubit `q` to |0> probabilistically as described in Sec. IV-B:
  /// the qubit is "measured", the surviving branch becomes the |0> branch.
  /// Returns the implicit measurement outcome.
  int resetQubit(vEdge& root, Qubit q, std::mt19937_64& rng);
  /// Reset with a forced implicit outcome (for deterministic stepping UIs).
  void resetQubitTo(vEdge& root, Qubit q, bool outcome);

  // --- reference counting & garbage collection ----------------------------

  void incRef(const vEdge& e) noexcept;
  void decRef(const vEdge& e) noexcept;
  void incRef(const mEdge& e) noexcept;
  void decRef(const mEdge& e) noexcept;
  /// Collects unreferenced nodes and weight-table entries. Returns true if a
  /// collection actually ran. With `force == false` this is cheap and only
  /// collects when tables have grown past their thresholds.
  bool garbageCollect(bool force = false);

  // --- statistics -----------------------------------------------------------

  /// Number of nodes in the DD rooted at `e` (terminal not counted, per the
  /// paper's convention in Ex. 6).
  static std::size_t size(const vEdge& e);
  static std::size_t size(const mEdge& e);
  /// Number of nodes the matrix DD `e` on `n` qubits would have if every
  /// level its edges skip were built as an explicit identity node [a,0,0,a]
  /// — the count behind the paper's figures (Fig. 2(c)'s 3-node CNOT,
  /// Ex. 12's 9-node peak). A skipped level above a node `p` becomes one
  /// identity node per (p, level), shared by every edge that skips it.
  static std::size_t materializedSize(const mEdge& e, std::size_t n);
  /// Active node count per qubit level of the DD rooted at `e` (index =
  /// level; the sum over all levels equals `size(e)`). Feeds the per-step
  /// metrics time series of the observability layer.
  static std::vector<std::size_t> sizeByLevel(const vEdge& e);
  static std::vector<std::size_t> sizeByLevel(const mEdge& e);

  /// Full snapshot of every table and allocator: unique tables, compute
  /// tables (with stale-rejection counts), the real-number table, and
  /// garbage-collection counters. Serializable to JSON via
  /// `mem::StatsRegistry::toJson`.
  [[nodiscard]] mem::StatsRegistry statistics() const;
  /// Compact snapshot cheap enough to record after every operation.
  [[nodiscard]] mem::TablePressure tablePressure() const;
  /// Current allocation generation (bumped by every GC / shrink).
  [[nodiscard]] std::uint32_t gcGeneration() const noexcept {
    return generation;
  }

private:
  template <class Node>
  void incRefEdge(const Edge<Node>& e) noexcept;
  template <class Node>
  void decRefEdge(const Edge<Node>& e) noexcept;

  /// Publishes the new allocation generation to every compute table after a
  /// collection/shrink, enabling their freshness-epoch lookup shortcut.
  void setComputeEpochs() noexcept;

  vEdge normalizeLargest(Qubit v, std::array<vEdge, 2> edges);
  vEdge normalizeNorm(Qubit v, std::array<vEdge, 2> edges);

  vEdge makeStateFromVector(const std::complex<double>* begin,
                            const std::complex<double>* end, Qubit level);
  mEdge makeMatrixFromDense(const std::vector<std::complex<double>>& mat,
                            std::size_t dim, std::size_t rowOff,
                            std::size_t colOff, std::size_t blockDim,
                            Qubit level);

  vEdge multiply2(mNode* x, vNode* y);
  mEdge multiply2(mNode* x, mNode* y);
  /// One result child of the matrix-vector (resp. matrix-matrix) multiply
  /// recursion: the sum over j of x_{i j} * y_j terms.
  vEdge multVecChildSum(mNode* x, vNode* y, bool xAligned, std::size_t i);
  mEdge multMatChildSum(mNode* x, mNode* y, bool xAligned, bool yAligned,
                        std::size_t i, std::size_t k);
  /// One result child of the add recursion (operand child k, weights
  /// composed).
  vEdge addVecChild(const vEdge& a, const vEdge& b, std::size_t k);
  mEdge addMatChild(const mEdge& a, const mEdge& b, Qubit va, Qubit vb,
                    Qubit v, std::size_t k);
  ComplexValue innerProduct2(vNode* x, vNode* y);

  void getVectorRec(const vEdge& e, ComplexValue amp, std::uint64_t index,
                    std::vector<std::complex<double>>& out);
  void getMatrixRec(const mEdge& e, ComplexValue amp, std::uint64_t row,
                    std::uint64_t col, std::uint64_t dim, Qubit expect,
                    std::vector<std::complex<double>>& out);

  /// Squared norm of the sub-DD under `p` (weight-1 root), memoized per call
  /// into `cache`.
  double nodeNorm(vNode* p, std::map<vNode*, double>& cache);

  /// Collapse helper shared by measurement and reset.
  void applyCollapse(vEdge& root, Qubit q, bool outcome, bool shiftToZero,
                     double outcomeProbability);

  mEdge partialTraceRec(const mEdge& a, Qubit expect,
                        const std::vector<bool>& eliminate,
                        const std::vector<Qubit>& levelMap,
                        std::map<const mNode*, mEdge>& memo);

  std::size_t nqubits;
  NormalizationScheme scheme;
  bool computeTablesEnabled = true;

  ComplexTable cTable;
  // Node storage. Declared before the unique tables, which hold references
  // into the managers.
  mem::MemoryManager<vNode> vMem;
  mem::MemoryManager<mNode> mMem;
  UniqueTable<vNode> vTable;
  UniqueTable<mNode> mTable;

  // Table sizes: multiplication dominates (every gate application), so it
  // gets the largest cache; the unary/rare operations get small ones to
  // keep Package construction and GC-time clearing cheap.
  ComputeTable<vEdge, vEdge, vEdge, (1U << 14U)> addVecTable;
  ComputeTable<mEdge, mEdge, mEdge, (1U << 14U)> addMatTable;
  ComputeTable<mNode*, vNode*, vEdge, (1U << 16U)> multMatVecTable;
  ComputeTable<mNode*, mNode*, mEdge, (1U << 16U)> multMatMatTable;
  ComputeTable<mNode*, mNode*, mEdge, (1U << 12U)> conjTransTable;
  ComputeTable<vNode*, vNode*, ComplexValue, (1U << 12U)> innerProductTable;
  // Scalar weight-product memos (see mulWeights / mulWeights3). Distinct
  // canonical weight pairs number far below distinct node pairs, so small
  // tables reach high hit rates while staying cache-resident.
  ComputeTable<Complex, Complex, Complex, (1U << 12U)> mulWeightTable;
  ComputeTable<Complex, WeightPair, Complex, (1U << 12U)> mulWeight3Table;

  /// Allocation-generation epoch shared by vMem, mMem, and the real table's
  /// entry pool. Bumped (and synced into all three) before any published
  /// object may be freed — i.e. in garbageCollect and shrink — so compute
  /// tables can reject stale entries lazily instead of being cleared.
  std::uint32_t generation = 0;

  mem::ApplyPathStats applyCounters;

  std::size_t gcRuns = 0;
  std::size_t collectedVectorNodes = 0;
  std::size_t collectedMatrixNodes = 0;
  std::size_t collectedReals = 0;
};

} // namespace qdd
