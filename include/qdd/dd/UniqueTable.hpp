#pragma once

#include "qdd/dd/Node.hpp"
#include "qdd/mem/MemoryManager.hpp"
#include "qdd/mem/StatsRegistry.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdd {

/// Hash-consing table ensuring canonicity: structurally identical nodes at
/// the same level are represented by a single object, so DD equality reduces
/// to root-pointer comparison (the property paper Sec. III-C relies on for
/// equivalence checking).
///
/// Node storage lives in a `mem::MemoryManager` owned by the package; the
/// table itself only manages per-level slot arrays. Each level is a flat
/// open-addressed array of `{node, hash32}` slots probed linearly: the
/// stored 32-bit fingerprint filters almost every mismatching probe without
/// dereferencing the candidate node, so a miss costs a sequential scan of
/// one small slot array instead of a pointer chase per chain link. Levels
/// start small and double (rehash) when their load factor reaches 3/4, so
/// table capacity follows the workload instead of being fixed at compile
/// time.
///
/// There are no tombstones, ever: deletion happens only wholesale during
/// garbage collection / shrinking, which rebuilds each touched level's slot
/// array from the survivors (their stored fingerprints are still valid —
/// GC never mutates a surviving node's children). Garbage collection is
/// reference-count based and sweeps levels top-down so that cascading
/// releases complete in a single pass (children are always at strictly
/// lower levels).
template <class Node> class UniqueTable {
public:
  // Small initial capacity per level: typical DDs keep most levels sparse,
  // and busy levels double their slot array on demand (load factor >= 3/4).
  static constexpr std::size_t INITIAL_BUCKETS = 1U << 6U; // per level
  static constexpr std::size_t GC_INITIAL_THRESHOLD = 131072;

  UniqueTable(mem::MemoryManager<Node>& manager, std::size_t nvars)
      : mgr(&manager), levels(nvars) {}

  UniqueTable(const UniqueTable&) = delete;
  UniqueTable& operator=(const UniqueTable&) = delete;

  /// Grows the table to `nvars` levels. Shrinking without a release callback
  /// is not allowed (nodes at removed levels would leak their children).
  void resize(std::size_t nvars) {
    assert(nvars >= levels.size() &&
           "shrinking requires a release-children callback");
    levels.resize(nvars);
  }

  /// Resizes to `nvars` levels. When shrinking, every node at a removed
  /// level is handed to `releaseChildren` (so the caller can decrement child
  /// references) and returned to the memory manager. The caller is
  /// responsible for ensuring no live edge still points into the removed
  /// levels and for advancing the manager's allocation generation first if
  /// any freed node may still be referenced by a compute-cache entry.
  template <class ReleaseChildren>
  void resize(std::size_t nvars, ReleaseChildren&& releaseChildren) {
    for (std::size_t level = nvars; level < levels.size(); ++level) {
      for (auto& slot : levels[level].slots) {
        if (slot.node != nullptr) {
          releaseChildren(slot.node);
          mgr->release(slot.node);
          slot.node = nullptr;
          assert(numNodes > 0);
          --numNodes;
        }
      }
    }
    levels.resize(nvars);
  }

  [[nodiscard]] std::size_t numLevels() const noexcept {
    return levels.size();
  }

  /// Returns a fresh node (generation-stamped by the memory manager) to be
  /// filled by the caller and passed to `lookup`.
  Node* getNode() { return mgr->get(); }

  /// Returns a node to the memory manager (used when `lookup` finds an
  /// existing equivalent node, and during garbage collection).
  void returnNode(Node* n) noexcept { mgr->release(n); }

  /// Looks up `candidate` (fully initialized, level set, children set) in the
  /// table. If an equivalent node exists, `candidate` is recycled and the
  /// existing node returned together with `inserted = false`. Otherwise the
  /// candidate is inserted and returned with `inserted = true`.
  Node* lookup(Node* candidate, bool& inserted) {
    const auto levelIdx = static_cast<std::size_t>(candidate->v);
    assert(levelIdx < levels.size());
    // The fingerprint seeds the probe sequence (not the full hash), so a
    // GC/rehash rebuild — which only has the fingerprint — reproduces the
    // exact same probe order.
    const std::uint32_t fp = detail::fold32(hashNode(*candidate));
    Level& level = levels[levelIdx];
    ++numLookups;
    // Grow before probing so the insert position found below stays valid.
    if ((level.entries + 1) * 4 >= level.slots.size() * 3) {
      growLevel(level);
    }
    const std::size_t mask = level.slots.size() - 1;
    std::size_t idx = fp & mask;
    std::size_t probe = 1;
    for (;; idx = (idx + 1) & mask, ++probe) {
      Slot& slot = level.slots[idx];
      if (slot.node == nullptr) {
        break;
      }
      if (slot.hash == fp && nodesStructurallyEqual(*slot.node, *candidate)) {
        ++numHits;
        noteProbe(probe);
        inserted = false;
        // Candidates are never published to compute caches, so recycling
        // them mid-epoch is safe.
        mgr->release(candidate);
        return slot.node;
      }
    }
    noteProbe(probe);
    if (probe > 1) {
      ++numCollisions;
    }
    level.slots[idx] = Slot{candidate, fp};
    ++level.entries;
    ++numNodes;
    peakNodes = std::max(peakNodes, numNodes);
    inserted = true;
    return candidate;
  }

  /// Sweeps all levels top-down, removing (and recycling) nodes with zero
  /// reference count. The caller must decrement child references via the
  /// provided callback when a node dies and must have advanced the memory
  /// manager's allocation generation beforehand. Touched levels are rebuilt
  /// from the survivors, so the probe sequences stay tombstone-free. Returns
  /// the number of collected nodes.
  template <class ReleaseChildren>
  std::size_t garbageCollect(ReleaseChildren&& releaseChildren) {
    std::size_t collected = 0;
    std::vector<Slot> survivors;
    for (auto levelIdx = levels.size(); levelIdx-- > 0;) {
      Level& level = levels[levelIdx];
      if (level.entries == 0) {
        continue;
      }
      std::size_t dead = 0;
      for (const auto& slot : level.slots) {
        if (slot.node != nullptr && slot.node->ref == 0) {
          ++dead;
        }
      }
      if (dead == 0) {
        continue;
      }
      survivors.clear();
      survivors.reserve(level.entries - dead);
      for (auto& slot : level.slots) {
        if (slot.node == nullptr) {
          continue;
        }
        if (slot.node->ref == 0) {
          releaseChildren(slot.node);
          mgr->release(slot.node);
        } else {
          survivors.push_back(slot);
        }
        slot = Slot{};
      }
      for (const auto& slot : survivors) {
        reinsert(level, slot);
      }
      level.entries = survivors.size();
      collected += dead;
    }
    numNodes -= collected;
    if (collected < numNodes / 8) {
      gcThreshold *= 2;
    }
    return collected;
  }

  [[nodiscard]] bool possiblyNeedsCollection() const noexcept {
    return numNodes > gcThreshold;
  }

  /// Number of nodes currently stored in the table.
  [[nodiscard]] std::size_t size() const noexcept { return numNodes; }
  [[nodiscard]] std::size_t peakSize() const noexcept { return peakNodes; }
  [[nodiscard]] std::size_t lookups() const noexcept { return numLookups; }
  [[nodiscard]] std::size_t hits() const noexcept { return numHits; }
  [[nodiscard]] std::size_t collisions() const noexcept {
    return numCollisions;
  }
  [[nodiscard]] std::size_t longestChain() const noexcept { return maxProbe; }
  [[nodiscard]] std::size_t probes() const noexcept { return numProbes; }
  [[nodiscard]] std::size_t rehashes() const noexcept { return numRehashes; }
  /// Nodes alive at this moment (stored + handed out via getNode).
  [[nodiscard]] std::size_t allocations() const noexcept {
    return mgr->live();
  }
  /// Total slot count across all levels.
  [[nodiscard]] std::size_t bucketCount() const noexcept {
    std::size_t total = 0;
    for (const auto& level : levels) {
      total += level.slots.size();
    }
    return total;
  }

  [[nodiscard]] mem::UniqueTableStats stats() const noexcept {
    mem::UniqueTableStats s;
    s.entries = numNodes;
    s.peakEntries = peakNodes;
    s.lookups = numLookups;
    s.hits = numHits;
    s.collisions = numCollisions;
    s.longestChain = maxProbe;
    s.probes = numProbes;
    s.levels = levels.size();
    s.buckets = bucketCount();
    s.rehashes = numRehashes;
    s.memory = mgr->stats();
    return s;
  }

  /// Visits every node currently in the table.
  template <class Visitor> void forEach(Visitor&& visit) const {
    for (const auto& level : levels) {
      for (const auto& slot : level.slots) {
        if (slot.node != nullptr) {
          visit(slot.node);
        }
      }
    }
  }

private:
  struct Slot {
    Node* node = nullptr;
    std::uint32_t hash = 0; ///< fold32 fingerprint of the full node hash
  };

  struct Level {
    std::vector<Slot> slots = std::vector<Slot>(INITIAL_BUCKETS);
    std::size_t entries = 0;
  };

  void noteProbe(std::size_t probe) noexcept {
    numProbes += probe;
    maxProbe = std::max(maxProbe, probe);
  }

  /// Inserts a slot known not to be present (rehash/GC rebuild): probes to
  /// the first empty slot. Only the fingerprint's low bits seed the probe,
  /// which is fine — the fingerprint already mixes the full hash.
  static void reinsert(Level& level, const Slot& slot) noexcept {
    const std::size_t mask = level.slots.size() - 1;
    std::size_t idx = slot.hash & mask;
    while (level.slots[idx].node != nullptr) {
      idx = (idx + 1) & mask;
    }
    level.slots[idx] = slot;
  }

  void growLevel(Level& level) {
    std::vector<Slot> old = std::move(level.slots);
    level.slots.assign(old.size() * 2, Slot{});
    for (const auto& slot : old) {
      if (slot.node != nullptr) {
        reinsert(level, slot);
      }
    }
    ++numRehashes;
  }

  mem::MemoryManager<Node>* mgr;
  std::vector<Level> levels;

  std::size_t numNodes = 0;
  std::size_t peakNodes = 0;
  std::size_t gcThreshold = GC_INITIAL_THRESHOLD;
  std::size_t numLookups = 0;
  std::size_t numHits = 0;
  std::size_t numCollisions = 0;
  std::size_t numProbes = 0;
  std::size_t maxProbe = 0;
  std::size_t numRehashes = 0;
};

} // namespace qdd
