#pragma once

// qdd::exec — task-level parallelism for the DD engine (`parallelFor`/
// `submit`): every worker owns its own dd::Package, tasks are whole
// circuits / shot chunks / verification directions, and nothing inside the
// DD engine is shared.

#include "qdd/obs/TraceContext.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qdd::exec {

/// Work-stealing thread pool. Tasks of a batch are dealt round-robin onto
/// per-worker deques; each worker pops its own deque LIFO and, when empty,
/// steals FIFO from its siblings — so a worker stuck behind one long task
/// (a deep circuit amid shallow ones) has its backlog drained by the others.
///
/// The pool runs one batch at a time (`parallelFor` serializes callers);
/// workers are started once in the constructor and parked on a condition
/// variable between batches.
///
/// Besides batches, the pool accepts *detached* tasks via `submit()`: fire-
/// and-forget closures dealt round-robin onto the same deques (and stolen
/// like any other task). They have no completion handle — callers needing
/// one track it themselves (the qdd::service HTTP server counts in-flight
/// requests this way). Detached tasks still queued when the destructor
/// runs are executed before the workers exit.
class ThreadPool {
public:
  /// Creates `workers` worker threads; 0 picks `defaultWorkers()`.
  explicit ThreadPool(std::size_t workers = 0);
  /// Joins all workers. Pending batches finish first (the destructor can
  /// only run once no parallelFor is active, and parallelFor is blocking).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workerCount() const noexcept {
    return queues.size();
  }

  /// `std::thread::hardware_concurrency()`, clamped to at least 1.
  [[nodiscard]] static std::size_t defaultWorkers();

  /// Runs `body(taskIndex, workerId)` for every taskIndex in [0, numTasks)
  /// and blocks until all have completed. Task distribution (taskIndex ->
  /// initial queue) is deterministic; execution order and the final
  /// task -> worker assignment are not (that is the point of stealing), so
  /// bodies must derive any reproducible state (RNG seeds!) from taskIndex,
  /// never from workerId or arrival order. workerId < workerCount() and is
  /// stable for the duration of one body invocation — it indexes per-worker
  /// resources such as the DD packages of exec::simulateBatch.
  ///
  /// If bodies throw, the batch still runs to completion and the first
  /// exception (by completion order) is rethrown here.
  void parallelFor(std::size_t numTasks,
                   const std::function<void(std::size_t, std::size_t)>& body);

  /// Enqueues one detached task (round-robin across the worker deques). The
  /// task runs exactly once on some worker; exceptions escaping it are
  /// swallowed and counted in Stats::detachedErrors — detached work is
  /// expected to handle its own failures. Safe to call concurrently with
  /// parallelFor and with other submit calls.
  void submit(std::function<void()> task);

  /// Scheduling counters (cumulative over the pool's lifetime).
  struct Stats {
    std::vector<std::size_t> executedPerWorker;
    std::size_t steals = 0;         ///< tasks taken from a sibling's deque
    std::size_t detachedErrors = 0; ///< exceptions escaping detached tasks
  };
  [[nodiscard]] Stats stats() const;

private:
  struct Batch {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> remaining{0};
    std::mutex errorMutex;
    std::exception_ptr error;
    std::mutex doneMutex;
    std::condition_variable doneCv;
  };

  /// One queued unit of work: task `index` of `batch` (whose owner keeps
  /// the Batch alive until every task completed); or — with `batch ==
  /// nullptr` — the detached closure `fn`. `trace` is the submitter's
  /// TraceContext, captured at enqueue time and installed around the task's
  /// execution, so spans recorded by pool work stay attributed to the
  /// request that fanned it out (and an invalid context *clears* the
  /// worker's slot, so no task ever inherits identity from whatever ran on
  /// the worker before).
  struct Item {
    Batch* batch = nullptr;
    std::size_t index = 0;
    std::function<void()> fn;
    obs::TraceContext trace;
  };

  /// One worker's deque. A plain mutex-guarded deque: tasks here are whole
  /// circuits / requests (micro- to milliseconds), so queue overhead is
  /// noise and the simple design is trivially race-free.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Item> tasks;
    std::atomic<std::size_t> executed{0};
  };

  void workerLoop(std::size_t id);
  bool popLocal(std::size_t id, Item& item);
  bool stealTask(std::size_t thief, Item& item);
  void runTask(Item&& item, std::size_t worker);

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> threads;

  std::mutex batchMutex; ///< serializes parallelFor callers

  std::mutex wakeMutex;
  std::condition_variable wakeCv;
  std::atomic<std::size_t> queued{0}; ///< tasks enqueued and not yet popped
  std::atomic<bool> stopping{false};
  std::atomic<std::size_t> stealCount{0};
  std::atomic<std::size_t> submitCursor{0}; ///< round-robin deal of submits
  std::atomic<std::size_t> detachedErrorCount{0};
};

} // namespace qdd::exec
