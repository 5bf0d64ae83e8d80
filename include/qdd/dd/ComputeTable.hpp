#pragma once

#include "qdd/complex/Complex.hpp"
#include "qdd/complex/ComplexValue.hpp"
#include "qdd/dd/Node.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qdd/mem/StatsRegistry.hpp"

namespace qdd {

/// Ordered pair of canonical weights, used as a single compute-table operand
/// by the three-factor weight-product memo (`Package::mulWeights3`). Equality
/// is exact tagged-pointer equality, like `Complex` itself.
struct WeightPair {
  Complex a;
  Complex b;

  friend bool operator==(const WeightPair& x, const WeightPair& y) noexcept {
    return x.a == y.a && x.b == y.b;
  }
};

/// Direct-mapped memoization cache for DD operations (footnote 4 of the
/// paper: "decision diagram packages employ unique tables and compute tables
/// ... to reduce the number of computations necessary").
///
/// Keys are tuples of node pointers and canonical weight pointers; collisions
/// simply overwrite (the cache is advisory). Each entry stores a 32-bit
/// fingerprint of its key, so a slot collision between different keys is
/// rejected on one in-line integer compare instead of field-by-field operand
/// comparison.
///
/// Entries are stamped with the package's garbage-collection generation at
/// insertion time, and every node and weight pointer an entry references
/// carries the generation it was allocated in (`mem::MemoryManager` stamps
/// it). An entry is served only if each referenced pointer's allocation
/// generation is no newer than the entry's stamp — otherwise some pointer
/// was freed (generation `FREED_GENERATION`) or recycled (newer generation)
/// since the entry was written and the entry is rejected as stale. This lets
/// garbage collection preserve the warm cache for surviving operands instead
/// of clearing all tables wholesale. Chunk storage is never returned to the
/// OS, so probing a stale pointer's generation field is memory-safe.
///
/// Freshness epoch shortcut: objects are only ever freed or recycled during
/// garbage collection / shrinking, and both advance the package generation.
/// So an entry written in the *current* generation cannot reference anything
/// freed after it was written, and the whole per-pointer freshness scan (up
/// to six dependent cache-line dereferences) collapses to one integer
/// compare. The package publishes its generation via `setEpoch` after every
/// collection; between collections — the overwhelmingly common case on the
/// hot path — every hit takes the shortcut.
template <class LeftOperand, class RightOperand, class Result,
          std::size_t NBUCKETS = (1U << 16U)>
class ComputeTable {
  static_assert((NBUCKETS & (NBUCKETS - 1)) == 0, "NBUCKETS must be 2^k");

public:
  struct Entry {
    LeftOperand left;
    RightOperand right;
    Result result;
    std::uint32_t gen = 0;
    std::uint32_t hash = 0; ///< fold32 fingerprint of the key
    bool valid = false;
  };

  void insert(const LeftOperand& left, const RightOperand& right,
              const Result& result, std::uint32_t generation) {
    const std::uint32_t fp = fingerprint(left, right);
    table[fp & (NBUCKETS - 1)] =
        Entry{left, right, result, generation, fp, true};
    ++numInserts;
  }

  /// On hit, copies the cached result into `out` and returns true. Entries
  /// whose operands or result reference pointers allocated after the entry
  /// was written are rejected as stale.
  bool lookup(const LeftOperand& left, const RightOperand& right,
              Result& out) {
    const std::uint32_t fp = fingerprint(left, right);
    const auto& slot = table[fp & (NBUCKETS - 1)];
    ++numLookups;
    if (!slot.valid || slot.hash != fp || !(slot.left == left) ||
        !(slot.right == right)) {
      return false;
    }
    if (slot.gen != epoch &&
        (!isFresh(slot.left, slot.gen) || !isFresh(slot.right, slot.gen) ||
         !isFresh(slot.result, slot.gen))) {
      ++numStaleRejections;
      return false;
    }
    ++numHits;
    out = slot.result;
    return true;
  }

  /// Hints the slot for `(left, right)` into cache. The recursive operations
  /// know the keys of their child calls before descending; prefetching the
  /// slot overlaps the (random-access) table load with the recursion.
  void prefetch(const LeftOperand& left, const RightOperand& right) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&table[fingerprint(left, right) & (NBUCKETS - 1)]);
#else
    (void)left;
    (void)right;
#endif
  }

  /// Publishes the package's current allocation generation (call after every
  /// garbage collection / shrink). Entries stamped with this exact
  /// generation skip the per-pointer freshness scan on lookup.
  void setEpoch(std::uint32_t generation) noexcept { epoch = generation; }

  void clear() {
    for (auto& slot : table) {
      slot.valid = false;
    }
  }

  [[nodiscard]] std::size_t lookups() const noexcept { return numLookups; }
  [[nodiscard]] std::size_t hits() const noexcept { return numHits; }
  [[nodiscard]] std::size_t inserts() const noexcept { return numInserts; }
  [[nodiscard]] std::size_t staleRejections() const noexcept {
    return numStaleRejections;
  }
  [[nodiscard]] double hitRatio() const noexcept {
    return numLookups == 0
               ? 0.
               : static_cast<double>(numHits) / static_cast<double>(numLookups);
  }

  [[nodiscard]] mem::ComputeTableStats stats(const std::string& name) const {
    mem::ComputeTableStats s;
    s.name = name;
    s.lookups = numLookups;
    s.hits = numHits;
    s.inserts = numInserts;
    s.staleRejections = numStaleRejections;
    return s;
  }

private:
  static std::size_t hashOperand(const void* p) noexcept {
    return detail::ptrHash(p);
  }
  template <class Node>
  static std::size_t hashOperand(const Edge<Node>& e) noexcept {
    std::size_t h = detail::ptrHash(e.p);
    h = detail::combineHash(h, detail::ptrHash(e.w.r));
    h = detail::combineHash(h, detail::ptrHash(e.w.i));
    return h;
  }
  static std::size_t hashOperand(const Complex& w) noexcept {
    return detail::combineHash(detail::ptrHash(w.r), detail::ptrHash(w.i));
  }
  static std::size_t hashOperand(const WeightPair& p) noexcept {
    return detail::combineHash(hashOperand(p.a), hashOperand(p.b));
  }

  static std::uint32_t fingerprint(const LeftOperand& left,
                                   const RightOperand& right) noexcept {
    return detail::fold32(
        detail::combineHash(hashOperand(left), hashOperand(right)));
  }

  // Freshness: a pointer is fresh w.r.t. an entry if it was allocated no
  // later than the entry was written. Freed pointers carry
  // mem::FREED_GENERATION (the maximum value) and thus always fail.
  // Terminal nodes and immortal weight entries keep generation 0 and always
  // pass. Value-type results carry no pointers and are always fresh.
  static bool isFresh(const ComplexValue& /*v*/, std::uint32_t /*g*/) noexcept {
    return true;
  }
  static bool isFresh(const Complex& w, std::uint32_t gen) noexcept {
    return Complex::aligned(w.r)->gen <= gen &&
           Complex::aligned(w.i)->gen <= gen;
  }
  static bool isFresh(const WeightPair& p, std::uint32_t gen) noexcept {
    return isFresh(p.a, gen) && isFresh(p.b, gen);
  }
  template <class Node>
  static bool isFresh(const Node* p, std::uint32_t gen) noexcept {
    return p->gen <= gen;
  }
  template <class Node>
  static bool isFresh(const Edge<Node>& e, std::uint32_t gen) noexcept {
    return isFresh(e.p, gen) && isFresh(e.w, gen);
  }

  // Heap-allocated: at 2^16 slots an Entry table is several MiB, far too
  // large for automatic storage inside a Package object.
  std::vector<Entry> table = std::vector<Entry>(NBUCKETS);
  std::uint32_t epoch = 0;
  std::size_t numLookups = 0;
  std::size_t numHits = 0;
  std::size_t numInserts = 0;
  std::size_t numStaleRejections = 0;
};

} // namespace qdd
