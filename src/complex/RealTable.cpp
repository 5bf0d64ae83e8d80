#include "qdd/complex/RealTable.hpp"

#include "qdd/complex/ComplexValue.hpp"

#include <algorithm>
#include <cmath>

namespace qdd {

RealTable::Entry RealTable::zeroEntry = [] {
  Entry e{0.};
  e.immortal = true;
  return e;
}();
RealTable::Entry RealTable::oneEntry = [] {
  Entry e{1.};
  e.immortal = true;
  return e;
}();
RealTable::Entry RealTable::sqrt2Entry = [] {
  Entry e{SQRT2_2};
  e.immortal = true;
  return e;
}();

RealTable::RealTable(double tolerance) : tol(tolerance) {}

RealTable::~RealTable() = default;

std::size_t RealTable::bucketOf(double val,
                                std::size_t nbuckets) const noexcept {
  // Values are predominantly in [0, 1]; everything >= 1 shares the top
  // buckets via a compressed logarithmic mapping so large magnitudes do not
  // all collide in a single bucket.
  if (val < 1.) {
    return static_cast<std::size_t>(val * static_cast<double>(nbuckets / 2));
  }
  const double l = std::log2(val) * 64.;
  const auto idx = nbuckets / 2 + static_cast<std::size_t>(l);
  return std::min(idx, nbuckets - 1);
}

void RealTable::grow() {
  std::vector<Entry*> next(table.size() * 2, nullptr);
  for (Entry* bucket : table) {
    while (bucket != nullptr) {
      Entry* e = bucket;
      bucket = e->next;
      const std::size_t key = bucketOf(e->value, next.size());
      e->next = next[key];
      next[key] = e;
    }
  }
  table = std::move(next);
  ++numRehashes;
}

RealTable::Entry* RealTable::lookup(double val) {
  assert(val >= 0. && "RealTable only stores non-negative values");
  ++numLookups;

  // Fast paths for the three immortal constants.
  if (std::abs(val) <= tol) {
    ++numHits;
    return &zeroEntry;
  }
  if (std::abs(val - 1.) <= tol) {
    ++numHits;
    return &oneEntry;
  }
  if (std::abs(val - SQRT2_2) <= tol) {
    ++numHits;
    return &sqrt2Entry;
  }

  const std::size_t key = bucketOf(val, table.size());
  // The tolerance window may straddle a bucket boundary; probe neighbours.
  const std::size_t lo = bucketOf(std::max(val - tol, 0.), table.size());
  const std::size_t hi = bucketOf(val + tol, table.size());
  for (std::size_t k = lo; k <= hi; ++k) {
    for (Entry* e = table[k]; e != nullptr; e = e->next) {
      if (std::abs(e->value - val) <= tol) {
        ++numHits;
        return e;
      }
    }
  }

  Entry* e = allocate(val);
  e->next = table[key];
  table[key] = e;
  ++numEntries;
  peakEntries = std::max(peakEntries, numEntries);
  if (e->next != nullptr) {
    ++numCollisions;
  }
  if (numEntries > table.size()) {
    grow();
  }
  return e;
}

RealTable::Entry* RealTable::allocate(double val) {
  Entry* e = pool.get();
  // Reinitialize everything except the generation the pool just stamped.
  e->value = val;
  e->next = nullptr;
  e->ref = 0;
  e->immortal = false;
  return e;
}

void RealTable::incRef(Entry* e) noexcept {
  if (e == nullptr || e->immortal) {
    return;
  }
  ++e->ref;
}

void RealTable::decRef(Entry* e) noexcept {
  if (e == nullptr || e->immortal) {
    return;
  }
  assert(e->ref > 0 && "reference count underflow in RealTable");
  --e->ref;
}

std::size_t RealTable::garbageCollect() {
  std::size_t collected = 0;
  for (auto& bucket : table) {
    Entry** link = &bucket;
    while (*link != nullptr) {
      Entry* e = *link;
      if (!e->immortal && e->ref == 0) {
        *link = e->next;
        pool.release(e);
        ++collected;
      } else {
        link = &e->next;
      }
    }
  }
  numEntries -= collected;
  // Grow the threshold if collection freed little, so we do not thrash.
  if (collected < numEntries / 8) {
    gcThreshold *= 2;
  }
  return collected;
}

void RealTable::clear() {
  for (auto& bucket : table) {
    Entry* e = bucket;
    while (e != nullptr) {
      Entry* next = e->next;
      pool.release(e);
      e = next;
    }
    bucket = nullptr;
  }
  numEntries = 0;
  gcThreshold = GC_INITIAL_THRESHOLD;
}

mem::RealTableStats RealTable::stats() const noexcept {
  mem::RealTableStats s;
  s.entries = numEntries;
  s.peakEntries = peakEntries;
  s.lookups = numLookups;
  s.hits = numHits;
  s.collisions = numCollisions;
  s.buckets = table.size();
  s.rehashes = numRehashes;
  s.memory = pool.stats();
  return s;
}

} // namespace qdd
