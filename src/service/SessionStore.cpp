#include "qdd/service/SessionStore.hpp"

#include "qdd/dd/Serialization.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

namespace qdd::service {

namespace {

/// A tenth of the shorter of the TTL and the idle-spill delay: find()
/// sweeps at most that often, so an idle session is evicted or spilled at
/// most a tenth late. Never when neither is set.
std::int64_t sweepInterval(const SessionStoreOptions& o) {
  std::int64_t shortest = std::numeric_limits<std::int64_t>::max();
  if (o.ttlMs > 0) {
    shortest = o.ttlMs;
  }
  if (!o.spillDir.empty() && o.spillAfterMs > 0) {
    shortest = std::min(shortest, o.spillAfterMs);
  }
  return shortest == std::numeric_limits<std::int64_t>::max() ? shortest
                                                              : shortest / 10;
}

} // namespace

SessionStore::SessionStore(SessionStoreOptions opts)
    : options(std::move(opts)), sweepIntervalMs(sweepInterval(options)) {
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
}

std::int64_t SessionStore::nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::shared_ptr<SessionStore::Entry> SessionStore::create(std::string kind) {
  evictExpired();
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (entries.size() + pendingN >= options.maxSessions) {
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
    const std::lock_guard<std::mutex> lock(mutex);
    entries[entry->id] = entry;
    --pendingN;
  }
  createdN.fetch_add(1, std::memory_order_relaxed);
  residentN.fetch_add(1, std::memory_order_relaxed);
  enforceBudget();
}

void SessionStore::abandon(const std::shared_ptr<Entry>& entry) {
  mem::StatsRegistry stats;
  if (entry->package) {
    stats = entry->package->statistics();
  }
  const std::lock_guard<std::mutex> lock(mutex);
  --pendingN;
  retired.merge(stats);
}

std::shared_ptr<SessionStore::Entry>
SessionStore::find(const std::string& id) {
  const std::int64_t now = nowMs();
  std::int64_t last = lastSweepMs.load(std::memory_order_relaxed);
  if (now - last >= sweepIntervalMs &&
      lastSweepMs.compare_exchange_strong(last, now,
                                          std::memory_order_relaxed)) {
    evictExpired();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = entries.find(id);
    if (it == entries.end()) {
      return nullptr;
    }
    Entry& entry = *it->second;
    if (options.ttlMs <= 0 ||
        now - entry.lastUsedMs.load(std::memory_order_relaxed) <=
            options.ttlMs) {
      entry.lastUsedMs.store(now, std::memory_order_relaxed);
      return it->second;
    }
  }
  erase(id); // idle past its TTL since the last sweep
  return nullptr;
}

bool SessionStore::erase(const std::string& id) {
  std::shared_ptr<Entry> removed;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = entries.find(id);
    if (it == entries.end()) {
      return false;
    }
    removed = it->second;
    entries.erase(it);
  }
  evictedN.fetch_add(1, std::memory_order_relaxed);
  retire(removed);
  return true;
}

std::size_t SessionStore::evictExpired() {
  const std::int64_t now = nowMs();
  lastSweepMs.store(now, std::memory_order_relaxed);
  std::vector<std::shared_ptr<Entry>> expired;
  std::vector<std::shared_ptr<Entry>> cold;
  const bool idleSpill = spillEnabled() && options.spillAfterMs > 0;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (auto it = entries.begin(); it != entries.end();) {
      const std::int64_t idle =
          now - it->second->lastUsedMs.load(std::memory_order_relaxed);
      if (options.ttlMs > 0 && idle > options.ttlMs) {
        expired.push_back(it->second);
        it = entries.erase(it);
        continue;
      }
      // idle-driven spilling: cold-but-not-yet-expired sessions go to disk
      if (idleSpill && idle > options.spillAfterMs &&
          !it->second->spilled.load(std::memory_order_relaxed)) {
        cold.push_back(it->second);
      }
      ++it;
    }
  }
  evictedN.fetch_add(expired.size(), std::memory_order_relaxed);
  // oldest first, for a deterministic retirement order
  std::sort(expired.begin(), expired.end(), [](const auto& a, const auto& b) {
    return a->lastUsedMs.load(std::memory_order_relaxed) <
           b->lastUsedMs.load(std::memory_order_relaxed);
  });
  for (const auto& entry : expired) {
    retire(entry);
  }
  for (const auto& entry : cold) {
    trySpill(entry);
  }

  enforceBudget();
  return expired.size();
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
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const auto& [id, entry] : entries) {
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
    const std::lock_guard<std::mutex> lock(mutex);
    retired.merge(stats);
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
  const std::lock_guard<std::mutex> lock(mutex);
  retired.merge(stats);
}

std::size_t SessionStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex);
  return entries.size();
}

std::size_t SessionStore::created() const {
  return createdN.load(std::memory_order_relaxed);
}

std::size_t SessionStore::evicted() const {
  return evictedN.load(std::memory_order_relaxed);
}

std::vector<std::shared_ptr<SessionStore::Entry>> SessionStore::list() const {
  // std::map order is id order
  const std::lock_guard<std::mutex> lock(mutex);
  std::vector<std::shared_ptr<Entry>> out;
  out.reserve(entries.size());
  for (const auto& [id, entry] : entries) {
    out.push_back(entry);
  }
  return out;
}

mem::StatsRegistry SessionStore::retiredStats() const {
  const std::lock_guard<std::mutex> lock(mutex);
  return retired;
}

} // namespace qdd::service
