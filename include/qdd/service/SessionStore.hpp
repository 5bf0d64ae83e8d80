#pragma once

// qdd::service — the live session registry. Each entry owns its private
// dd::Package plus one simulation OR verification session on top of it
// (packages are not thread-safe, so a per-entry mutex serializes every
// request touching the same session; different sessions proceed in
// parallel on different pool workers, mirroring the one-package-per-worker
// design of qdd::exec).
//
// One mutex guards the entry map and the retired statistics. Lock order
// invariant: an entry mutex is never locked while the store mutex is held,
// so taking the store mutex under an entry mutex cannot deadlock. Only the
// restore path does that (it re-applies the resident budget while its
// caller holds the restored entry), and it only try_locks the other
// entries it spills. Stats folding collects under the entry lock,
// releases it, then merges under the store lock.
//
// Spill tier: when a spill directory is configured, cold sessions are
// serialized (dd::Serialization text round-trip) to disk and their
// package + session destroyed — an idle session then costs one file plus
// a small in-RAM image (circuit IR, positions, classical bits) instead of
// a full DD package. The next touch transparently restores through
// ensureResident(); the per-entry mutex doubles as the in-flight-restore
// guard, so concurrent touches restore exactly once. Sessions spill when
// idle past `spillAfterMs`, or coldest-first when the resident count
// exceeds `maxResident` (the budget).
//
// Admission and lifetime: a hard cap on concurrent sessions (create fails
// once full -> the API answers 429) and TTL eviction of idle sessions in
// least-recently-used order. The sweep that evicts and spills idle
// sessions (evictExpired) runs on every create and, at most once per
// tenth of the shorter of `ttlMs` and `spillAfterMs`, on find — so idle
// sessions leave memory while other sessions are being served, and a
// session idle past its TTL answers as absent. Evicted/spilled packages
// fold their statistics() into the cumulative registry surfaced by
// /metrics, so table/cache behavior is not lost with the session.

#include "qdd/dd/Package.hpp"
#include "qdd/ir/QuantumComputation.hpp"
#include "qdd/mem/StatsRegistry.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/verify/VerificationSession.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace qdd::service {

/// Thrown by ensureResident() when a spilled session cannot be brought
/// back (unreadable/corrupt spill file). The API maps it to a 500.
struct RestoreError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SessionStoreOptions {
  std::size_t maxSessions = 16;
  /// <= 0 disables TTL eviction.
  std::int64_t ttlMs = 600000;
  /// Directory for spill files; empty disables the spill tier.
  std::string spillDir;
  /// Sessions idle longer than this are spilled by the next
  /// evictExpired() pass. <= 0 disables idle-driven spilling (budget
  /// pressure via maxResident still spills).
  std::int64_t spillAfterMs = 0;
  /// Soft cap on sessions holding a live package; beyond it the coldest
  /// sessions are spilled. 0 means unlimited.
  std::size_t maxResident = 0;
};

class SessionStore {
public:
  /// The in-RAM remainder of a spilled session: everything needed to
  /// rebuild package + session except the DD itself (which lives in the
  /// spill file). Deliberately small — circuit IR, cursor positions,
  /// classical bits — so 10k idle sessions fit in a few MiB.
  struct SpillImage {
    std::string path;
    std::size_t bytes = 0; ///< spill file size
    std::unique_ptr<ir::QuantumComputation> circuit; ///< simulation
    std::unique_ptr<ir::QuantumComputation> left;    ///< verification
    std::unique_ptr<ir::QuantumComputation> right;
    std::size_t position = 0;
    std::size_t posL = 0;
    std::size_t posR = 0;
    std::vector<bool> classicals;
    std::size_t peak = 0;
    std::uint64_t outcomeDraws = 0; ///< RNG numbers drawn before the spill
  };

  struct Entry {
    // id/kind/name/qubits/seed are filled in before publish() and
    // immutable afterwards, so they may be read without the entry mutex.
    std::string id;
    std::string kind; ///< "simulation" | "verification"
    std::string name; ///< circuit name(s), for listings
    std::size_t qubits = 0;
    std::uint64_t seed = 0; ///< RNG seed; a restore resumes its stream
    /// Serializes all request processing on this session (the package
    /// underneath is single-threaded) and doubles as the restore-once
    /// guard: restores happen under this mutex.
    std::mutex mutex;
    std::unique_ptr<Package> package;
    std::unique_ptr<sim::SimulationSession> simulation;
    std::unique_ptr<verify::VerificationSession> verification;
    /// Present exactly while `spilled` is true; guarded by `mutex`.
    std::unique_ptr<SpillImage> spill;
    /// Atomic so LRU/spill scans can read it without the entry mutex.
    std::atomic<bool> spilled{false};
    /// LRU stamp (steady-clock ms); atomic for lock-free refresh in find()
    /// and lock-free scans in eviction/spill passes.
    std::atomic<std::int64_t> lastUsedMs{0};
    std::size_t requests = 0; ///< guarded by `mutex`
  };

  /// Throws std::invalid_argument when `options.spillDir` is set but is not
  /// an existing, writable directory: every spill would fail and keep its
  /// session resident.
  explicit SessionStore(SessionStoreOptions options);

  /// Reserves a session slot and assigns an id ("s1", "s2", ...) WITHOUT
  /// making the entry visible to lookups. The caller constructs
  /// package/session on the still-private entry, then either publish()es it
  /// or abandon()s the reservation — so the map only ever holds fully
  /// constructed sessions. Returns nullptr when the store is full even
  /// after evicting expired sessions.
  std::shared_ptr<Entry> create(std::string kind);

  /// Inserts a fully constructed entry from create() into the map,
  /// making it visible to find()/list(), then enforces the spill budget.
  void publish(const std::shared_ptr<Entry>& entry);

  /// Releases the slot reserved by create() when construction failed. The
  /// entry was never visible; any partially built package folds its stats.
  void abandon(const std::shared_ptr<Entry>& entry);

  /// Looks up a session and refreshes its LRU stamp; nullptr when absent
  /// or idle past the TTL (it is evicted then). Runs evictExpired() first
  /// when the last pass is at least a sweep interval old, so, like
  /// create(), it must not be called with an entry mutex held. The entry
  /// may be spilled — callers that need the live session must lock the
  /// entry mutex and call ensureResident().
  std::shared_ptr<Entry> find(const std::string& id);

  /// Restores `entry` from its spill file if (and only if) it is spilled,
  /// then spills the coldest other sessions the resident budget no longer
  /// has room for. REQUIRES the caller to hold entry->mutex — that is what
  /// makes concurrent touches restore exactly once. Throws RestoreError
  /// when the spill file is unreadable or corrupt (the entry stays
  /// spilled).
  void ensureResident(Entry& entry);

  /// Removes a session (folding its stats, deleting any spill file);
  /// false when absent.
  bool erase(const std::string& id);

  /// Evicts every session idle longer than the TTL (LRU order), spills
  /// sessions idle past spillAfterMs, and enforces the resident budget.
  /// Returns the number evicted. Called internally on create() and find(),
  /// exposed for the session listing and tests.
  std::size_t evictExpired();

  /// Spills one session now (test hook / admin). False when the session
  /// is absent, already spilled, busy, or the spill tier is disabled.
  bool spillNow(const std::string& id);

  /// Spills coldest resident sessions until residentCount() <=
  /// maxResident. Returns the number spilled. No-op when the spill tier
  /// or the budget is disabled.
  std::size_t enforceBudget();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t created() const;
  [[nodiscard]] std::size_t evicted() const;
  [[nodiscard]] std::size_t capacity() const noexcept {
    return options.maxSessions;
  }

  // --- spill-tier observability -------------------------------------------

  [[nodiscard]] bool spillEnabled() const noexcept {
    return !options.spillDir.empty();
  }
  [[nodiscard]] std::size_t residentCount() const noexcept {
    return residentN.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t spilledCount() const noexcept {
    return spilledNowN.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spilledTotal() const noexcept {
    return spilledTotalN.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t restores() const noexcept {
    return restoresN.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t restoreFailures() const noexcept {
    return restoreFailuresN.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spillBytesTotal() const noexcept {
    return spillBytesN.load(std::memory_order_relaxed);
  }

  /// (id, kind, name) of all live sessions, sorted by id.
  [[nodiscard]] std::vector<std::shared_ptr<Entry>> list() const;

  /// Cumulative statistics of all evicted/erased/spilled packages.
  [[nodiscard]] mem::StatsRegistry retiredStats() const;

private:
  [[nodiscard]] static std::int64_t nowMs();

  void retire(const std::shared_ptr<Entry>& entry);
  /// enforceBudget() that never picks `keep`: the restore path holds that
  /// entry's mutex, and try_lock on a mutex the thread owns is undefined.
  std::size_t enforceBudgetExcept(const Entry* keep);
  /// try_locks the entry and spills it; false when busy or not spillable.
  bool trySpill(const std::shared_ptr<Entry>& entry);
  /// Spills with entry->mutex held; folds the package stats into `stats`.
  bool spillLocked(Entry& entry, mem::StatsRegistry& stats);

  const SessionStoreOptions options;
  /// Minimum time between two evictExpired() passes started by find().
  const std::int64_t sweepIntervalMs;

  mutable std::mutex mutex; ///< guards entries, retired and pendingN
  std::map<std::string, std::shared_ptr<Entry>> entries;
  mem::StatsRegistry retired;
  std::size_t pendingN = 0; ///< slots reserved by create(), not published

  std::atomic<std::int64_t> lastSweepMs{0};
  std::atomic<std::size_t> nextId{1};
  std::atomic<std::size_t> createdN{0};
  std::atomic<std::size_t> evictedN{0};
  std::atomic<std::size_t> residentN{0};
  std::atomic<std::size_t> spilledNowN{0};
  std::atomic<std::uint64_t> spilledTotalN{0};
  std::atomic<std::uint64_t> restoresN{0};
  std::atomic<std::uint64_t> restoreFailuresN{0};
  std::atomic<std::uint64_t> spillBytesN{0};
};

} // namespace qdd::service
