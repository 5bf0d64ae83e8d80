#pragma once

#include "qdd/mem/MemoryManager.hpp"
#include "qdd/mem/StatsRegistry.hpp"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdd {

/// Canonical storage for the (non-negative) real parts of edge weights.
///
/// Every distinct real value occurring as the real or imaginary part of an
/// edge weight is stored exactly once (up to a configurable tolerance).
/// Canonicity of decision diagrams then reduces weight comparison to pointer
/// comparison. Negative values are represented by tagging the least
/// significant bit of the `Entry` pointer (see Complex.hpp); the table itself
/// only ever stores values >= 0.
///
/// The bucket array starts small and doubles (rehashing all entries) when the
/// load factor exceeds one, so the table grows with the workload instead of
/// being sized at compile time. Entry storage lives in a
/// `mem::MemoryManager`, which stamps every entry with its allocation
/// generation — the hook the package's generation-stamped compute caches use
/// to reject stale weight pointers lazily after garbage collection.
///
/// This is the lookup-table design of Zulehner, Hillmich, Wille:
/// "How to efficiently handle complex values? Implementing decision diagrams
/// for quantum computing" (ICCAD 2019) — reference [14] of the paper.
class RealTable {
public:
  struct Entry {
    double value = 0.;
    Entry* next = nullptr;     ///< bucket chain / free-list link
    std::uint32_t ref = 0;     ///< reference count (from edges of live nodes)
    std::uint32_t gen = 0;     ///< allocation generation (mem::MemoryManager)
    bool immortal = false;     ///< never garbage collected (0, 1, 1/sqrt2)

    Entry() = default;
    explicit Entry(double v) : value(v) {}
  };

  /// Default tolerance used for value identification.
  static constexpr double DEFAULT_TOLERANCE = 1e-10;

  explicit RealTable(double tolerance = DEFAULT_TOLERANCE);
  ~RealTable();

  RealTable(const RealTable&) = delete;
  RealTable& operator=(const RealTable&) = delete;

  /// Shared immortal entries. These are statics so that `Complex::zero` and
  /// `Complex::one` can be constant-initialized and compared by pointer
  /// across packages.
  static Entry& zero() noexcept { return zeroEntry; }
  static Entry& one() noexcept { return oneEntry; }
  static Entry& sqrt2over2() noexcept { return sqrt2Entry; }

  /// Looks up `val` (must be >= 0) and returns the canonical entry,
  /// inserting a new one if no entry lies within the tolerance.
  Entry* lookup(double val);

  [[nodiscard]] double tolerance() const noexcept { return tol; }
  void setTolerance(double t) noexcept { tol = t; }

  /// Number of (non-immortal) live entries.
  [[nodiscard]] std::size_t size() const noexcept { return numEntries; }
  [[nodiscard]] std::size_t peakSize() const noexcept { return peakEntries; }
  [[nodiscard]] std::size_t lookups() const noexcept { return numLookups; }
  [[nodiscard]] std::size_t hits() const noexcept { return numHits; }
  [[nodiscard]] std::size_t collisions() const noexcept {
    return numCollisions;
  }
  [[nodiscard]] std::size_t rehashes() const noexcept { return numRehashes; }
  [[nodiscard]] std::size_t bucketCount() const noexcept {
    return table.size();
  }

  [[nodiscard]] mem::RealTableStats stats() const noexcept;

  static void incRef(Entry* e) noexcept;
  static void decRef(Entry* e) noexcept;

  /// Removes all entries with a zero reference count. Returns the number of
  /// collected entries. Pointers to collected entries become invalid; the
  /// owning package bumps the allocation generation first so its
  /// generation-stamped compute caches reject them lazily.
  std::size_t garbageCollect();

  /// Returns true if a garbage collection is advisable (table grew large).
  [[nodiscard]] bool possiblyNeedsCollection() const noexcept {
    return numEntries > gcThreshold;
  }

  /// Advances the allocation generation of the entry pool (called by the
  /// owning package before entries may be recycled).
  void setAllocationGeneration(std::uint32_t gen) noexcept {
    pool.setGeneration(gen);
  }

  /// Removes every entry (used on package reset). Immortals survive.
  void clear();

private:
  static constexpr std::size_t INITIAL_BUCKETS = 1U << 11U; // power of two
  static constexpr std::size_t GC_INITIAL_THRESHOLD = 65536;

  static Entry zeroEntry;
  static Entry oneEntry;
  static Entry sqrt2Entry;

  [[nodiscard]] std::size_t bucketOf(double val,
                                     std::size_t nbuckets) const noexcept;
  /// Doubles the bucket array and redistributes all chains.
  void grow();

  Entry* allocate(double val);

  std::vector<Entry*> table = std::vector<Entry*>(INITIAL_BUCKETS, nullptr);
  mem::MemoryManager<Entry> pool;

  double tol;
  std::size_t numEntries = 0;
  std::size_t peakEntries = 0;
  std::size_t numLookups = 0;
  std::size_t numHits = 0;
  std::size_t numCollisions = 0;
  std::size_t numRehashes = 0;
  std::size_t gcThreshold = GC_INITIAL_THRESHOLD;
};

} // namespace qdd
