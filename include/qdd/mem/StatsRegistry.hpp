#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qdd::mem {

/// Counters of a `MemoryManager` (chunk allocator + free list).
struct AllocatorStats {
  std::size_t live = 0;      ///< objects handed out and not released
  std::size_t peakLive = 0;  ///< high-water mark of `live`
  std::size_t allocated = 0; ///< slots ever carved from chunks
  std::size_t chunks = 0;    ///< number of chunks backing the pool
  std::size_t bytes = 0;     ///< total chunk memory in bytes

  /// Accumulates another allocator's counters (sums; peaks are summed too,
  /// since the pools are disjoint and their memory coexists).
  void merge(const AllocatorStats& other) noexcept;
};

/// Snapshot of one hash-consing unique table (vector or matrix nodes).
struct UniqueTableStats {
  std::size_t entries = 0;     ///< nodes currently stored
  std::size_t peakEntries = 0; ///< high-water mark of `entries`
  std::size_t lookups = 0;
  std::size_t hits = 0; ///< lookups answered by an existing node
  std::size_t collisions = 0;
  std::size_t longestChain = 0; ///< longest open-addressing probe sequence
  std::size_t probes = 0;       ///< slot inspections across all lookups
  std::size_t levels = 0;
  std::size_t buckets = 0;  ///< total slots across all levels
  std::size_t rehashes = 0; ///< per-level slot-array doublings
  AllocatorStats memory;

  /// Accumulates another table's counters: sums, except `longestChain` and
  /// `levels`, which take the maximum — so merging any number of package
  /// snapshots in any order yields the same totals.
  void merge(const UniqueTableStats& other) noexcept;

  [[nodiscard]] double hitRatio() const noexcept {
    return lookups == 0 ? 0.
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  /// Mean slots inspected per lookup (1.0 = every probe hit its home slot).
  [[nodiscard]] double avgProbeLength() const noexcept {
    return lookups == 0 ? 0.
                        : static_cast<double>(probes) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double loadFactor() const noexcept {
    return buckets == 0 ? 0.
                        : static_cast<double>(entries) /
                              static_cast<double>(buckets);
  }
};

/// Snapshot of the canonical real-number table.
struct RealTableStats {
  std::size_t entries = 0;
  std::size_t peakEntries = 0;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t collisions = 0;
  std::size_t buckets = 0;
  std::size_t rehashes = 0;
  AllocatorStats memory;

  /// Accumulates another table's counters (sums).
  void merge(const RealTableStats& other) noexcept;

  [[nodiscard]] double hitRatio() const noexcept {
    return lookups == 0 ? 0.
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Snapshot of one memoization (compute) table.
struct ComputeTableStats {
  std::string name;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t inserts = 0;
  /// Lookups whose key matched but whose entry referenced an object freed or
  /// recycled since insertion (generation mismatch) — the lazily-invalidated
  /// remainder of a garbage collection.
  std::size_t staleRejections = 0;

  /// Accumulates another snapshot's counters (sums; `name` is kept).
  void merge(const ComputeTableStats& other) noexcept;

  [[nodiscard]] double hitRatio() const noexcept {
    return lookups == 0 ? 0.
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Counters of the direct gate-application engine (`Package::applyGate`):
/// which kernel served each gate application. `fallback` counts applications
/// routed through the general matrix-DD `multiply` recursion instead, because
/// no fast path exists for the operation (arbitrary two-qubit unitaries).
struct ApplyPathStats {
  std::size_t diagonal = 0;    ///< diagonal gates: pure edge-weight rescale
  std::size_t permutation = 0; ///< antidiagonal gates: pure child swap
  std::size_t generic = 0;     ///< other 2x2 gates: direct two-term combine
  std::size_t fallback = 0;    ///< general makeGateDD + multiply path

  /// Accumulates another engine's counters (sums).
  void merge(const ApplyPathStats& other) noexcept;

  [[nodiscard]] std::size_t fast() const noexcept {
    return diagonal + permutation + generic;
  }
  [[nodiscard]] std::size_t total() const noexcept {
    return fast() + fallback;
  }
  /// Fraction of gate applications served by a fast path.
  [[nodiscard]] double coverage() const noexcept {
    return total() == 0 ? 0.
                        : static_cast<double>(fast()) /
                              static_cast<double>(total());
  }
};

/// Garbage-collection counters of a package.
struct GcStats {
  std::size_t runs = 0;
  std::uint32_t generation = 0; ///< current allocation generation (epoch)
  std::size_t collectedVectorNodes = 0;
  std::size_t collectedMatrixNodes = 0;
  std::size_t collectedReals = 0;

  /// Accumulates another package's GC counters (sums; `generation` takes the
  /// maximum, as generations are per-package epochs, not additive).
  void merge(const GcStats& other) noexcept;
};

/// Compact per-step snapshot cheap enough to record after every applied
/// operation (sessions expose a history of these so the paper's "inspect
/// intermediate DDs" workflow can also show table pressure).
struct TablePressure {
  std::size_t vectorNodes = 0;
  std::size_t matrixNodes = 0;
  std::size_t realEntries = 0;
  std::size_t cacheLookups = 0; ///< summed over all compute tables
  std::size_t cacheHits = 0;
  std::size_t gcRuns = 0;

  [[nodiscard]] double cacheHitRatio() const noexcept {
    return cacheLookups == 0 ? 0.
                             : static_cast<double>(cacheHits) /
                                   static_cast<double>(cacheLookups);
  }
};

/// Aggregated view over every table and allocator of a package, queryable as
/// one struct and serializable to JSON (exported by the trace exporter and
/// printed by `qdd_tool --stats`).
struct StatsRegistry {
  UniqueTableStats vectorTable;
  UniqueTableStats matrixTable;
  RealTableStats reals;
  std::vector<ComputeTableStats> computeTables;
  ApplyPathStats apply;
  GcStats gc;

  /// Looks up a compute table snapshot by name; nullptr if absent.
  [[nodiscard]] const ComputeTableStats*
  computeTable(const std::string& name) const;

  /// Sums lookups/hits/inserts/stale rejections over all compute tables.
  [[nodiscard]] ComputeTableStats computeTotals() const;

  [[nodiscard]] TablePressure pressure() const;

  /// Serializes the registry. `pretty == false` emits a single line (used by
  /// the benchmark harness so one grep-able record captures cache behavior).
  [[nodiscard]] std::string toJson(bool pretty = true) const;

  /// Accumulates another registry into this one — the aggregation step after
  /// a parallel batch, merging each worker package's statistics() snapshot.
  /// Counters are summed; structural maxima (longest chain, levels, GC
  /// generation) take the maximum; compute tables are matched by name, with
  /// unknown names appended. Merging registries in any order yields the same
  /// totals, so the aggregate is deterministic regardless of scheduling.
  void merge(const StatsRegistry& other);
};

} // namespace qdd::mem
