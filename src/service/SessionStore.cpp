#include "qdd/service/SessionStore.hpp"

#include "qdd/dd/Serialization.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

namespace qdd::service {

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1U;
  }
  return p;
}

/// FNV-1a — cheap, well-distributed for short "s<n>" ids, and dependency-
/// free (std::hash<std::string> is not guaranteed stable across libstdc++
/// versions, and shard assignment shows up in metrics).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

} // namespace

SessionStore::SessionStore(SessionStoreOptions opts) : options(std::move(opts)) {
  if (spillEnabled()) {
    std::error_code ec;
    if (!std::filesystem::is_directory(options.spillDir, ec)) {
      throw std::invalid_argument("spill directory '" + options.spillDir +
                                  "' does not exist or is not a directory");
    }
    if (::access(options.spillDir.c_str(), W_OK | X_OK) != 0) {
      throw std::invalid_argument("spill directory '" + options.spillDir +
                                  "' is not writable");
    }
  }
  const std::size_t n =
      std::min<std::size_t>(roundUpPow2(std::max<std::size_t>(1, options.shards)),
                            256);
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back(std::make_unique<Shard>());
  }
}

SessionStore::SessionStore(std::size_t maxSessions, std::int64_t ttlMs)
    : SessionStore([&] {
        SessionStoreOptions opts;
        opts.maxSessions = maxSessions;
        opts.ttlMs = ttlMs;
        return opts;
      }()) {}

SessionStore::Shard& SessionStore::shardOf(const std::string& id) {
  return *shards[fnv1a(id) & (shards.size() - 1)];
}

const SessionStore::Shard& SessionStore::shardOf(const std::string& id) const {
  return *shards[fnv1a(id) & (shards.size() - 1)];
}

std::int64_t SessionStore::nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::shared_ptr<SessionStore::Entry> SessionStore::create(std::string kind) {
  evictExpired();
  {
    const std::lock_guard<std::mutex> lock(admissionMutex);
    if (liveN.load(std::memory_order_relaxed) + pendingN >=
        options.maxSessions) {
      return nullptr;
    }
    ++pendingN;
  }
  auto entry = std::make_shared<Entry>();
  entry->id = "s" + std::to_string(nextId.fetch_add(1));
  entry->kind = std::move(kind);
  entry->lastUsedMs.store(nowMs(), std::memory_order_relaxed);
  return entry;
}

void SessionStore::publish(const std::shared_ptr<Entry>& entry) {
  {
    Shard& shard = shardOf(entry->id);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries[entry->id] = entry;
  }
  {
    const std::lock_guard<std::mutex> lock(admissionMutex);
    --pendingN;
  }
  liveN.fetch_add(1, std::memory_order_relaxed);
  createdN.fetch_add(1, std::memory_order_relaxed);
  residentN.fetch_add(1, std::memory_order_relaxed);
  enforceBudget();
}

void SessionStore::abandon(const std::shared_ptr<Entry>& entry) {
  mem::StatsRegistry stats;
  if (entry->package) {
    stats = entry->package->statistics();
  }
  {
    const std::lock_guard<std::mutex> lock(admissionMutex);
    --pendingN;
  }
  Shard& shard = shardOf(entry->id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.retired.merge(stats);
}

std::shared_ptr<SessionStore::Entry>
SessionStore::find(const std::string& id) {
  Shard& shard = shardOf(id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    return nullptr;
  }
  it->second->lastUsedMs.store(nowMs(), std::memory_order_relaxed);
  return it->second;
}

bool SessionStore::erase(const std::string& id) {
  std::shared_ptr<Entry> removed;
  {
    Shard& shard = shardOf(id);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(id);
    if (it == shard.entries.end()) {
      return false;
    }
    removed = it->second;
    shard.entries.erase(it);
  }
  liveN.fetch_sub(1, std::memory_order_relaxed);
  evictedN.fetch_add(1, std::memory_order_relaxed);
  retire(removed);
  return true;
}

std::size_t SessionStore::evictExpired() {
  std::size_t evictedHere = 0;
  if (options.ttlMs > 0) {
    const std::int64_t now = nowMs();
    std::vector<std::shared_ptr<Entry>> expired;
    for (const auto& shard : shards) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      for (auto it = shard->entries.begin(); it != shard->entries.end();) {
        const std::int64_t idle =
            now - it->second->lastUsedMs.load(std::memory_order_relaxed);
        if (idle > options.ttlMs) {
          expired.push_back(it->second);
          it = shard->entries.erase(it);
        } else {
          ++it;
        }
      }
    }
    liveN.fetch_sub(expired.size(), std::memory_order_relaxed);
    evictedN.fetch_add(expired.size(), std::memory_order_relaxed);
    evictedHere = expired.size();
    // oldest first, for a deterministic retirement order
    std::sort(expired.begin(), expired.end(),
              [](const auto& a, const auto& b) {
                return a->lastUsedMs.load(std::memory_order_relaxed) <
                       b->lastUsedMs.load(std::memory_order_relaxed);
              });
    for (const auto& entry : expired) {
      retire(entry);
    }
  }

  // idle-driven spilling: cold-but-not-yet-expired sessions go to disk
  if (spillEnabled() && options.spillAfterMs > 0) {
    const std::int64_t now = nowMs();
    std::vector<std::shared_ptr<Entry>> cold;
    for (const auto& shard : shards) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      for (const auto& [id, entry] : shard->entries) {
        if (!entry->spilled.load(std::memory_order_relaxed) &&
            now - entry->lastUsedMs.load(std::memory_order_relaxed) >
                options.spillAfterMs) {
          cold.push_back(entry);
        }
      }
    }
    for (const auto& entry : cold) {
      trySpill(entry);
    }
  }

  enforceBudget();
  return evictedHere;
}

std::size_t SessionStore::enforceBudget() {
  return enforceBudgetExcept(nullptr);
}

std::size_t SessionStore::enforceBudgetExcept(const Entry* keep) {
  if (!spillEnabled() || options.maxResident == 0) {
    return 0;
  }
  if (residentN.load(std::memory_order_relaxed) <= options.maxResident) {
    return 0;
  }
  // snapshot resident entries, coldest first
  std::vector<std::shared_ptr<Entry>> resident;
  for (const auto& shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->entries) {
      if (!entry->spilled.load(std::memory_order_relaxed) &&
          entry.get() != keep) {
        resident.push_back(entry);
      }
    }
  }
  std::sort(resident.begin(), resident.end(),
            [](const auto& a, const auto& b) {
              return a->lastUsedMs.load(std::memory_order_relaxed) <
                     b->lastUsedMs.load(std::memory_order_relaxed);
            });
  std::size_t spilledHere = 0;
  for (const auto& entry : resident) {
    if (residentN.load(std::memory_order_relaxed) <= options.maxResident) {
      break;
    }
    if (trySpill(entry)) {
      ++spilledHere;
    }
    // busy entries (try_lock failed) are simply skipped — a session
    // currently serving a request is by definition not cold
  }
  return spilledHere;
}

bool SessionStore::spillNow(const std::string& id) {
  if (!spillEnabled()) {
    return false;
  }
  const auto entry = find(id);
  if (entry == nullptr) {
    return false;
  }
  return trySpill(entry);
}

bool SessionStore::trySpill(const std::shared_ptr<Entry>& entry) {
  mem::StatsRegistry stats;
  bool didSpill = false;
  {
    std::unique_lock<std::mutex> lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      return false;
    }
    didSpill = spillLocked(*entry, stats);
  }
  if (didSpill) {
    Shard& shard = shardOf(entry->id);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.retired.merge(stats);
  }
  return didSpill;
}

bool SessionStore::spillLocked(Entry& entry, mem::StatsRegistry& stats) {
  if (!entry.package || entry.spilled.load(std::memory_order_relaxed)) {
    return false;
  }

  auto image = std::make_unique<SpillImage>();
  std::string text;
  if (entry.simulation) {
    const sim::SimulationSession& s = *entry.simulation;
    text = serializeToString(s.state());
    image->circuit =
        std::make_unique<ir::QuantumComputation>(s.circuit());
    image->position = s.position();
    image->classicals = s.classicalBits();
    image->peak = s.peakNodes();
    image->outcomeDraws = s.outcomeDraws();
  } else if (entry.verification) {
    const verify::VerificationSession& v = *entry.verification;
    text = serializeToString(v.state(), entry.qubits);
    image->left =
        std::make_unique<ir::QuantumComputation>(v.leftCircuit());
    image->right =
        std::make_unique<ir::QuantumComputation>(v.rightCircuit());
    image->posL = v.leftPosition();
    image->posR = v.rightPosition();
    image->peak = v.peakNodes();
  } else {
    return false;
  }

  image->path = options.spillDir + "/" + entry.id + ".qdds";
  image->bytes = text.size();
  {
    std::ofstream out(image->path, std::ios::trunc);
    if (!out) {
      return false; // unwritable spill dir: stay resident
    }
    out << text;
    if (!out.flush()) {
      std::remove(image->path.c_str());
      return false;
    }
  }

  stats = entry.package->statistics();
  // session first (it decRefs into the package), then the package
  entry.simulation.reset();
  entry.verification.reset();
  entry.package.reset();
  entry.spill = std::move(image);
  entry.spilled.store(true, std::memory_order_release);

  residentN.fetch_sub(1, std::memory_order_relaxed);
  spilledNowN.fetch_add(1, std::memory_order_relaxed);
  spilledTotalN.fetch_add(1, std::memory_order_relaxed);
  spillBytesN.fetch_add(text.size(), std::memory_order_relaxed);
  return true;
}

void SessionStore::ensureResident(Entry& entry) {
  if (!entry.spilled.load(std::memory_order_acquire)) {
    return;
  }
  const SpillImage& image = *entry.spill;

  std::string text;
  {
    std::ifstream in(image.path);
    if (!in) {
      restoreFailuresN.fetch_add(1, std::memory_order_relaxed);
      throw RestoreError("session " + entry.id +
                         ": spill file unreadable: " + image.path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  std::unique_ptr<Package> package;
  std::unique_ptr<sim::SimulationSession> simulation;
  std::unique_ptr<verify::VerificationSession> verification;
  try {
    package = std::make_unique<Package>(entry.qubits);
    if (image.circuit) {
      simulation = std::make_unique<sim::SimulationSession>(
          *image.circuit, *package, entry.seed);
      // deserialization re-interns through the normalizing constructors,
      // so the adopted root is this package's canonical representative
      const vEdge root = deserializeVectorFromString(*package, text);
      simulation->restoreTo(root, image.position, image.classicals,
                            image.peak, image.outcomeDraws);
    } else {
      verification = std::make_unique<verify::VerificationSession>(
          *image.left, *image.right, *package);
      const mEdge root = deserializeMatrixFromString(*package, text);
      verification->restoreTo(root, image.posL, image.posR, image.peak);
    }
  } catch (const std::exception& e) {
    // destroy in dependency order, keep the entry spilled for a retry
    simulation.reset();
    verification.reset();
    package.reset();
    restoreFailuresN.fetch_add(1, std::memory_order_relaxed);
    throw RestoreError("session " + entry.id +
                       ": spill restore failed: " + e.what());
  }

  std::remove(image.path.c_str());
  entry.package = std::move(package);
  entry.simulation = std::move(simulation);
  entry.verification = std::move(verification);
  entry.spill.reset();
  entry.spilled.store(false, std::memory_order_release);

  residentN.fetch_add(1, std::memory_order_relaxed);
  spilledNowN.fetch_sub(1, std::memory_order_relaxed);
  restoresN.fetch_add(1, std::memory_order_relaxed);
  enforceBudgetExcept(&entry);
}

void SessionStore::retire(const std::shared_ptr<Entry>& entry) {
  // A request may still be mid-flight on this session (it holds a shared_ptr
  // through the map snapshot it took); its mutex serializes us behind it.
  mem::StatsRegistry stats;
  bool wasResident = false;
  {
    const std::lock_guard<std::mutex> entryLock(entry->mutex);
    if (entry->package) {
      stats = entry->package->statistics();
      wasResident = true;
    }
    if (entry->spill) {
      std::remove(entry->spill->path.c_str());
      entry->spill.reset();
      entry->spilled.store(false, std::memory_order_relaxed);
      spilledNowN.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (wasResident) {
    residentN.fetch_sub(1, std::memory_order_relaxed);
  }
  Shard& shard = shardOf(entry->id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.retired.merge(stats);
}

std::size_t SessionStore::size() const {
  return liveN.load(std::memory_order_relaxed);
}

std::size_t SessionStore::created() const {
  return createdN.load(std::memory_order_relaxed);
}

std::size_t SessionStore::evicted() const {
  return evictedN.load(std::memory_order_relaxed);
}

std::vector<std::size_t> SessionStore::shardSizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards.size());
  for (const auto& shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    sizes.push_back(shard->entries.size());
  }
  return sizes;
}

std::vector<std::shared_ptr<SessionStore::Entry>> SessionStore::list() const {
  std::vector<std::shared_ptr<Entry>> out;
  for (const auto& shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, entry] : shard->entries) {
      out.push_back(entry);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a->id < b->id;
  });
  return out;
}

mem::StatsRegistry SessionStore::retiredStats() const {
  mem::StatsRegistry merged;
  for (const auto& shard : shards) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    merged.merge(shard->retired);
  }
  return merged;
}

} // namespace qdd::service
