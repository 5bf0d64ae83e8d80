#include "qdd/exec/ThreadPool.hpp"

#include "qdd/obs/Obs.hpp"

#include <algorithm>
#include <string>

namespace qdd::exec {

std::size_t ThreadPool::defaultWorkers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = workers == 0 ? defaultWorkers() : workers;
  queues.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queues.push_back(std::make_unique<WorkerQueue>());
  }
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(wakeMutex);
    stopping.store(true, std::memory_order_relaxed);
  }
  wakeCv.notify_all();
  for (auto& thread : threads) {
    thread.join();
  }
}

bool ThreadPool::popLocal(std::size_t id, Item& item) {
  WorkerQueue& q = *queues[id];
  const std::lock_guard<std::mutex> lock(q.mutex);
  if (q.tasks.empty()) {
    return false;
  }
  // LIFO on the own deque: the most recently dealt task is the one whose
  // distribution round is least likely to have been stolen already.
  item = std::move(q.tasks.back());
  q.tasks.pop_back();
  queued.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::stealTask(std::size_t thief, Item& item) {
  const std::size_t count = queues.size();
  for (std::size_t k = 1; k < count; ++k) {
    WorkerQueue& victim = *queues[(thief + k) % count];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.tasks.empty()) {
      continue;
    }
    // FIFO from the victim: take the task the owner would reach last.
    item = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    queued.fetch_sub(1, std::memory_order_relaxed);
    stealCount.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::runTask(Item&& item, std::size_t worker) {
  // Install the submitter's trace context for the duration of the task
  // (invalid contexts clear the slot rather than leaking the previous
  // task's identity).
  const obs::TraceScope traceScope(item.trace);
  std::atomic<std::size_t>& executed = queues[worker]->executed;
  if (item.batch == nullptr) {
    try {
      item.fn();
    } catch (...) {
      detachedErrorCount.fetch_add(1, std::memory_order_relaxed);
    }
    executed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Batch* b = item.batch;
  try {
    (*b->body)(item.index, worker);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(b->errorMutex);
    if (!b->error) {
      b->error = std::current_exception();
    }
  }
  executed.fetch_add(1, std::memory_order_relaxed);
  if (b->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::lock_guard<std::mutex> lock(b->doneMutex);
    b->doneCv.notify_all();
  }
}

void ThreadPool::workerLoop(std::size_t id) {
  obs::Registry::labelCurrentThread("worker-" + std::to_string(id));
  while (true) {
    Item item;
    if (popLocal(id, item) || stealTask(id, item)) {
      runTask(std::move(item), id);
      continue;
    }
    std::unique_lock<std::mutex> lock(wakeMutex);
    wakeCv.wait(lock, [this] {
      return stopping.load(std::memory_order_relaxed) ||
             queued.load(std::memory_order_relaxed) > 0;
    });
    if (stopping.load(std::memory_order_relaxed) &&
        queued.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

void ThreadPool::parallelFor(
    std::size_t numTasks,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (numTasks == 0) {
    return;
  }
  const std::lock_guard<std::mutex> serialize(batchMutex);
  Batch current;
  current.body = &body;
  current.remaining.store(numTasks, std::memory_order_relaxed);

  // Deal tasks round-robin: task i starts on queue i % W. Deterministic, so
  // the 1-worker run and the 8-worker run enumerate identical task sets per
  // queue before stealing redistributes them.
  const std::size_t count = queues.size();
  const obs::TraceContext trace = obs::currentTrace();
  for (std::size_t i = 0; i < numTasks; ++i) {
    WorkerQueue& q = *queues[i % count];
    const std::lock_guard<std::mutex> lock(q.mutex);
    q.tasks.push_back(Item{&current, i, {}, trace});
    // Incremented under the queue lock that also guards the matching pop,
    // so `queued` can never be decremented before its increment.
    queued.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Empty critical section: any worker currently between evaluating the
    // wait predicate and blocking finishes doing so before the notify.
    const std::lock_guard<std::mutex> lock(wakeMutex);
  }
  wakeCv.notify_all();

  {
    std::unique_lock<std::mutex> lock(current.doneMutex);
    current.doneCv.wait(lock, [&current] {
      return current.remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (current.error) {
    std::rethrow_exception(current.error);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t target =
      submitCursor.fetch_add(1, std::memory_order_relaxed) % queues.size();
  {
    WorkerQueue& q = *queues[target];
    const std::lock_guard<std::mutex> lock(q.mutex);
    q.tasks.push_back(Item{nullptr, 0, std::move(task), obs::currentTrace()});
    queued.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Empty critical section, same as parallelFor: a worker between
    // evaluating the wait predicate and blocking finishes doing so first.
    const std::lock_guard<std::mutex> lock(wakeMutex);
  }
  // notify_all, not notify_one: the condition variable wakes the
  // longest-parked worker first, so one wakeup per task rotates tasks
  // through every worker, and each worker's malloc arena then keeps freed
  // DD packages of its own (sessbench fleet on a 4-vCPU VM: peak server
  // RSS 272 -> 406 MiB, although switches per request fell 4.7 -> 2.9).
  wakeCv.notify_all();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.executedPerWorker.reserve(queues.size());
  for (const auto& q : queues) {
    s.executedPerWorker.push_back(q->executed.load(std::memory_order_relaxed));
  }
  s.steals = stealCount.load(std::memory_order_relaxed);
  s.detachedErrors = detachedErrorCount.load(std::memory_order_relaxed);
  return s;
}

} // namespace qdd::exec
