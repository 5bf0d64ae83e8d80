#pragma once

#include "qdd/mem/StatsRegistry.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace qdd::mem {

/// Allocation generation marking objects currently sitting on the free list.
/// Compared against compute-table entry stamps, it is larger than every real
/// generation, so cached results referencing a freed object are always
/// rejected.
inline constexpr std::uint32_t FREED_GENERATION = 0xffffffffU;

/// Chunked pool allocator with an intrusive free list and generation
/// stamping, extracted from the unique table so node storage is decoupled
/// from hashing (one manager per node type lives in the Package; the real
/// table owns one for its entries).
///
/// Requirements on `T`: a `T* next` member (free-list chaining) and a
/// `std::uint32_t gen` member (allocation generation). `get()` stamps the
/// object with the current generation; `release()` stamps it FREED. The
/// owner bumps the generation whenever previously published objects may be
/// recycled (garbage collection, table shrinking); generation-stamped caches
/// then detect stale pointers lazily: an object is unchanged since a stamp
/// `g` iff `obj->gen <= g`.
///
/// Chunks are never returned to the system while the manager lives, so
/// dereferencing a stale pointer is memory-safe (though logically invalid) —
/// exactly what the lazy cache-invalidation scheme relies on.
template <class T> class MemoryManager {
public:
  static constexpr std::size_t INITIAL_CHUNK_SIZE = 2048;

  explicit MemoryManager(std::size_t initialChunkSize = INITIAL_CHUNK_SIZE)
      : chunkSize(initialChunkSize) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Returns an object stamped with the current generation. Contents other
  /// than `next`/`gen` are unspecified (recycled objects keep their old
  /// fields); the caller initializes them.
  T* get() {
    if (freeList != nullptr) {
      T* t = freeList;
      freeList = t->next;
      t->gen = currentGen;
      ++liveObjects;
      peakLive = std::max(peakLive, liveObjects);
      return t;
    }
    if (chunks.empty() || chunkIndex == chunkSize) {
      if (!chunks.empty()) {
        chunkSize *= 2;
      }
      chunks.push_back(std::make_unique<T[]>(chunkSize));
      chunkIndex = 0;
      totalSlots += chunkSize;
    }
    T* t = &chunks.back()[chunkIndex++];
    t->gen = currentGen;
    ++liveObjects;
    peakLive = std::max(peakLive, liveObjects);
    return t;
  }

  /// Returns an object to the free list and marks it FREED.
  void release(T* t) noexcept {
    t->next = freeList;
    t->gen = FREED_GENERATION;
    freeList = t;
    assert(liveObjects > 0);
    --liveObjects;
  }

  /// Advances the allocation generation. Must be called before freed objects
  /// from an older generation can be handed out again with observable effect
  /// (i.e. at every garbage collection / shrink), so stale cache entries are
  /// distinguishable from live ones.
  void setGeneration(std::uint32_t gen) noexcept {
    assert(gen >= currentGen && gen != FREED_GENERATION);
    currentGen = gen;
  }
  [[nodiscard]] std::uint32_t generation() const noexcept {
    return currentGen;
  }

  /// Objects handed out and not yet released.
  [[nodiscard]] std::size_t live() const noexcept { return liveObjects; }
  [[nodiscard]] std::size_t peak() const noexcept { return peakLive; }

  [[nodiscard]] AllocatorStats stats() const noexcept {
    AllocatorStats s;
    s.live = liveObjects;
    s.peakLive = peakLive;
    s.allocated = totalSlots;
    s.chunks = chunks.size();
    s.bytes = totalSlots * sizeof(T);
    return s;
  }

private:
  std::vector<std::unique_ptr<T[]>> chunks;
  std::size_t chunkIndex = 0;
  std::size_t chunkSize;
  std::size_t totalSlots = 0;
  T* freeList = nullptr;
  std::uint32_t currentGen = 0;

  std::size_t liveObjects = 0;
  std::size_t peakLive = 0;
};

} // namespace qdd::mem
