#include "qdd/mem/StatsRegistry.hpp"

#include "qdd/common/Json.hpp"
#include "qdd/common/NumberFormat.hpp"

#include <algorithm>

namespace qdd::mem {

void AllocatorStats::merge(const AllocatorStats& other) noexcept {
  live += other.live;
  peakLive += other.peakLive;
  allocated += other.allocated;
  chunks += other.chunks;
  bytes += other.bytes;
}

void UniqueTableStats::merge(const UniqueTableStats& other) noexcept {
  entries += other.entries;
  peakEntries += other.peakEntries;
  lookups += other.lookups;
  hits += other.hits;
  collisions += other.collisions;
  longestChain = std::max(longestChain, other.longestChain);
  probes += other.probes;
  levels = std::max(levels, other.levels);
  buckets += other.buckets;
  rehashes += other.rehashes;
  memory.merge(other.memory);
}

void RealTableStats::merge(const RealTableStats& other) noexcept {
  entries += other.entries;
  peakEntries += other.peakEntries;
  lookups += other.lookups;
  hits += other.hits;
  collisions += other.collisions;
  buckets += other.buckets;
  rehashes += other.rehashes;
  memory.merge(other.memory);
}

void ComputeTableStats::merge(const ComputeTableStats& other) noexcept {
  lookups += other.lookups;
  hits += other.hits;
  inserts += other.inserts;
  staleRejections += other.staleRejections;
}

void ApplyPathStats::merge(const ApplyPathStats& other) noexcept {
  diagonal += other.diagonal;
  permutation += other.permutation;
  generic += other.generic;
  fallback += other.fallback;
}

void GcStats::merge(const GcStats& other) noexcept {
  runs += other.runs;
  generation = std::max(generation, other.generation);
  collectedVectorNodes += other.collectedVectorNodes;
  collectedMatrixNodes += other.collectedMatrixNodes;
  collectedReals += other.collectedReals;
}

void StatsRegistry::merge(const StatsRegistry& other) {
  vectorTable.merge(other.vectorTable);
  matrixTable.merge(other.matrixTable);
  reals.merge(other.reals);
  for (const auto& table : other.computeTables) {
    bool found = false;
    for (auto& mine : computeTables) {
      if (mine.name == table.name) {
        mine.merge(table);
        found = true;
        break;
      }
    }
    if (!found) {
      computeTables.push_back(table);
    }
  }
  apply.merge(other.apply);
  gc.merge(other.gc);
}

const ComputeTableStats*
StatsRegistry::computeTable(const std::string& name) const {
  for (const auto& table : computeTables) {
    if (table.name == name) {
      return &table;
    }
  }
  return nullptr;
}

ComputeTableStats StatsRegistry::computeTotals() const {
  ComputeTableStats total;
  total.name = "total";
  for (const auto& table : computeTables) {
    total.lookups += table.lookups;
    total.hits += table.hits;
    total.inserts += table.inserts;
    total.staleRejections += table.staleRejections;
  }
  return total;
}

TablePressure StatsRegistry::pressure() const {
  TablePressure p;
  p.vectorNodes = vectorTable.entries;
  p.matrixNodes = matrixTable.entries;
  p.realEntries = reals.entries;
  const ComputeTableStats totals = computeTotals();
  p.cacheLookups = totals.lookups;
  p.cacheHits = totals.hits;
  p.gcRuns = gc.runs;
  return p;
}

namespace {

/// Minimal structured JSON writer: tracks nesting and whether a separator is
/// due, so emission code reads like the document it produces. Numbers and
/// strings go through the package's JSON appenders (doubles with nine
/// significant digits, locale-independent).
class JsonWriter {
public:
  explicit JsonWriter(bool pretty) : pretty(pretty) {}

  void openObject(const char* key = nullptr) { open(key, '{'); }
  void closeObject() { close('}'); }
  void openArray(const char* key) { open(key, '['); }
  void closeArray() { close(']'); }

  void field(const char* key, std::size_t value) {
    separator();
    emitKey(key);
    appendInteger(out, value);
  }
  void field(const char* key, double value) {
    separator();
    emitKey(key);
    json::appendNumber(out, value, 9);
  }
  void field(const char* key, const std::string& value) {
    separator();
    emitKey(key);
    out += '"';
    json::appendEscaped(out, value);
    out += '"';
  }

  [[nodiscard]] std::string str() const { return out + (pretty ? "\n" : ""); }

private:
  void open(const char* key, char brace) {
    separator();
    if (key != nullptr) {
      emitKey(key);
    }
    out += brace;
    ++depth;
    pending = false;
  }
  void close(char brace) {
    --depth;
    if (pretty) {
      out += '\n';
      indent();
    }
    out += brace;
    pending = true;
  }
  void separator() {
    if (pending) {
      out += ',';
    }
    if (pretty && depth > 0) {
      out += '\n';
      indent();
    }
    pending = true;
  }
  void emitKey(const char* key) {
    out += '"';
    out += key;
    out += pretty ? "\": " : "\":";
  }
  void indent() { out.append(2 * static_cast<std::size_t>(depth), ' '); }

  std::string out;
  bool pretty;
  bool pending = false;
  int depth = 0;
};

void writeAllocator(JsonWriter& w, const AllocatorStats& a) {
  w.openObject("memory");
  w.field("live", a.live);
  w.field("peakLive", a.peakLive);
  w.field("allocated", a.allocated);
  w.field("chunks", a.chunks);
  w.field("bytes", a.bytes);
  w.closeObject();
}

void writeUniqueTable(JsonWriter& w, const char* key,
                      const UniqueTableStats& t) {
  w.openObject(key);
  w.field("entries", t.entries);
  w.field("peakEntries", t.peakEntries);
  w.field("lookups", t.lookups);
  w.field("hits", t.hits);
  w.field("hitRatio", t.hitRatio());
  w.field("collisions", t.collisions);
  w.field("longestChain", t.longestChain);
  w.field("probes", t.probes);
  w.field("avgProbeLength", t.avgProbeLength());
  w.field("levels", t.levels);
  w.field("buckets", t.buckets);
  w.field("loadFactor", t.loadFactor());
  w.field("rehashes", t.rehashes);
  writeAllocator(w, t.memory);
  w.closeObject();
}

} // namespace

std::string StatsRegistry::toJson(bool pretty) const {
  JsonWriter w(pretty);
  w.openObject();

  w.openObject("uniqueTables");
  writeUniqueTable(w, "vector", vectorTable);
  writeUniqueTable(w, "matrix", matrixTable);
  w.closeObject();

  w.openObject("realTable");
  w.field("entries", reals.entries);
  w.field("peakEntries", reals.peakEntries);
  w.field("lookups", reals.lookups);
  w.field("hits", reals.hits);
  w.field("hitRatio", reals.hitRatio());
  w.field("collisions", reals.collisions);
  w.field("buckets", reals.buckets);
  w.field("rehashes", reals.rehashes);
  writeAllocator(w, reals.memory);
  w.closeObject();

  w.openArray("computeTables");
  for (const auto& table : computeTables) {
    w.openObject();
    w.field("name", table.name);
    w.field("lookups", table.lookups);
    w.field("hits", table.hits);
    w.field("hitRatio", table.hitRatio());
    w.field("inserts", table.inserts);
    w.field("staleRejections", table.staleRejections);
    w.closeObject();
  }
  w.closeArray();

  {
    const ComputeTableStats totals = computeTotals();
    w.openObject("computeTotals");
    w.field("lookups", totals.lookups);
    w.field("hits", totals.hits);
    w.field("hitRatio", totals.hitRatio());
    w.field("staleRejections", totals.staleRejections);
    w.closeObject();
  }

  w.openObject("apply");
  w.field("diagonal", apply.diagonal);
  w.field("permutation", apply.permutation);
  w.field("generic", apply.generic);
  w.field("fallback", apply.fallback);
  w.field("coverage", apply.coverage());
  w.closeObject();

  w.openObject("gc");
  w.field("runs", gc.runs);
  w.field("generation", static_cast<std::size_t>(gc.generation));
  w.field("collectedVectorNodes", gc.collectedVectorNodes);
  w.field("collectedMatrixNodes", gc.collectedMatrixNodes);
  w.field("collectedReals", gc.collectedReals);
  w.closeObject();

  w.closeObject();
  return w.str();
}

} // namespace qdd::mem
