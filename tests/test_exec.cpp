// Tests for the multi-core execution subsystem (qdd::exec): the
// work-stealing thread pool, deterministic batch simulation with per-worker
// DD packages, chunked parallel sampling, suite execution over circuit
// files, cooperative cancellation, and the portfolio equivalence checker.

#include "qdd/exec/Batch.hpp"
#include "qdd/exec/CancellationToken.hpp"
#include "qdd/exec/Portfolio.hpp"
#include "qdd/exec/ThreadPool.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/verify/EquivalenceChecker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef QDD_CIRCUITS_DIR
#error "QDD_CIRCUITS_DIR must be defined by the build system"
#endif

namespace qdd {
namespace {

const std::string CIRCUITS = QDD_CIRCUITS_DIR;

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4U);

  constexpr std::size_t numTasks = 100;
  std::vector<std::atomic<int>> hits(numTasks);
  pool.parallelFor(numTasks, [&](std::size_t task, std::size_t worker) {
    EXPECT_LT(worker, pool.workerCount());
    hits[task].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }

  const auto stats = pool.stats();
  ASSERT_EQ(stats.executedPerWorker.size(), 4U);
  const std::size_t executed =
      std::accumulate(stats.executedPerWorker.begin(),
                      stats.executedPerWorker.end(), std::size_t{0});
  EXPECT_EQ(executed, numTasks);
}

TEST(ThreadPoolTest, ZeroWorkersPicksDefault) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.workerCount(), exec::ThreadPool::defaultWorkers());
  EXPECT_GE(exec::ThreadPool::defaultWorkers(), 1U);
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  exec::ThreadPool pool(2);
  bool ran = false;
  pool.parallelFor(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SupportsConsecutiveBatches) {
  exec::ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallelFor(10, [&](std::size_t, std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 10U);
  }
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndBatchCompletes) {
  exec::ThreadPool pool(2);
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(
      pool.parallelFor(20,
                       [&](std::size_t task, std::size_t) {
                         if (task == 7) {
                           throw std::runtime_error("task 7 failed");
                         }
                         ++completed;
                       }),
      std::runtime_error);
  // the batch ran to completion: every non-throwing task executed
  EXPECT_EQ(completed.load(), 19U);

  // the pool stays usable after an exception
  std::atomic<std::size_t> after{0};
  pool.parallelFor(5, [&](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 5U);
}

TEST(ThreadPoolTest, IdleWorkersStealFromABlockedSibling) {
  exec::ThreadPool pool(2);
  // Round-robin dealing puts the even task indices on worker 0's deque,
  // which it pops LIFO — so the highest even index runs first. Make that
  // task slow: worker 0 blocks on it while worker 1 drains its own deque
  // and then steals worker 0's backlog.
  constexpr std::size_t numTasks = 16;
  constexpr std::size_t slowTask = 14;
  std::vector<std::atomic<int>> hits(numTasks);
  pool.parallelFor(numTasks, [&](std::size_t task, std::size_t) {
    if (task == slowTask) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    hits[task].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  const auto stats = pool.stats();
  EXPECT_GT(stats.steals, 0U);
  // the non-blocked worker picked up more than its original deal of 8
  EXPECT_GT(stats.executedPerWorker[1], 8U);
}

TEST(ThreadPoolTest, DetachedSubmitsAllRun) {
  // Declared before the pool, so the pool (and every task still queued on
  // it) is gone before the state the tasks touch.
  std::atomic<int> ran{0};
  std::atomic<bool> laterRan{false};
  std::atomic<bool> blockerDone{false};
  exec::ThreadPool pool(4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto waitFor = [&deadline](const auto& done) {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Every task must run, whichever deque it was dealt to and however the
  // submits interleave.
  constexpr int perThread = 5000;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&pool, &ran] {
      for (int k = 0; k < perThread; ++k) {
        pool.submit([&ran] { ran.fetch_add(1); });
      }
    });
  }
  for (auto& submitter : submitters) {
    submitter.join();
  }
  waitFor([&ran] { return ran.load() == 2 * perThread; });
  EXPECT_EQ(ran.load(), 2 * perThread);

  // A task that blocks until a later-submitted task runs: another worker
  // must be woken for the later task, or the blocker starves.
  pool.submit([&laterRan, &blockerDone, deadline] {
    while (!laterRan.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    blockerDone.store(true);
  });
  pool.submit([&laterRan] { laterRan.store(true); });
  waitFor([&blockerDone] { return blockerDone.load(); });
  EXPECT_TRUE(laterRan.load());
  EXPECT_TRUE(blockerDone.load());
  EXPECT_EQ(pool.stats().detachedErrors, 0U);
}

// --- per-task seeds --------------------------------------------------------

TEST(ExecTest, TaskSeedsAreDecorrelatedAndDeterministic) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(exec::taskSeed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000U); // no collisions across task indices
  EXPECT_EQ(exec::taskSeed(42, 3), exec::taskSeed(42, 3));
  EXPECT_NE(exec::taskSeed(42, 3), exec::taskSeed(43, 3));
  EXPECT_NE(exec::taskSeed(0, 0), 0U); // user seed 0 still decorrelates
}

// --- batch simulation ------------------------------------------------------

TEST(ExecTest, BatchResultsAreIndependentOfWorkerCount) {
  std::vector<ir::QuantumComputation> circuits;
  for (std::size_t i = 0; i < 8; ++i) {
    circuits.push_back(ir::builders::qft(5));
  }
  exec::BatchOptions serial;
  serial.workers = 1;
  serial.seed = 42;
  serial.shots = 64;
  const auto a = exec::simulateBatch(circuits, serial);

  exec::BatchOptions parallel = serial;
  parallel.workers = 8;
  const auto b = exec::simulateBatch(circuits, parallel);

  ASSERT_EQ(a.circuits.size(), circuits.size());
  ASSERT_EQ(b.circuits.size(), circuits.size());
  EXPECT_EQ(a.workers, 1U);
  EXPECT_EQ(b.workers, 8U);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_TRUE(a.circuits[i].ok()) << a.circuits[i].error;
    EXPECT_TRUE(b.circuits[i].ok()) << b.circuits[i].error;
    // bit-identical per-task results: node counts and sampled histograms
    EXPECT_EQ(a.circuits[i].finalNodes, b.circuits[i].finalNodes);
    EXPECT_EQ(a.circuits[i].peakNodes, b.circuits[i].peakNodes);
    EXPECT_EQ(a.circuits[i].sampling.counts, b.circuits[i].sampling.counts);
    EXPECT_EQ(a.circuits[i].sampling.shots, 64U);
  }
}

TEST(ExecTest, BatchCapturesPerTaskFailuresWithoutAborting) {
  std::vector<ir::QuantumComputation> circuits;
  circuits.push_back(ir::builders::ghz(3));
  circuits.push_back(ir::QuantumComputation(0)); // unsimulatable: no qubits
  circuits.push_back(ir::builders::ghz(3));

  exec::BatchOptions options;
  options.workers = 2;
  const auto result = exec::simulateBatch(circuits, options);
  ASSERT_EQ(result.circuits.size(), 3U);
  EXPECT_TRUE(result.circuits[0].ok());
  EXPECT_FALSE(result.circuits[1].error.empty()); // captured, not fatal
  EXPECT_TRUE(result.circuits[2].ok());
  EXPECT_EQ(result.circuits[0].finalNodes, result.circuits[2].finalNodes);
  EXPECT_EQ(result.failures(), 1U);
}

TEST(ExecTest, BatchMergesWorkerStatistics) {
  std::vector<ir::QuantumComputation> circuits;
  for (std::size_t i = 0; i < 4; ++i) {
    circuits.push_back(ir::builders::qft(4));
  }
  exec::BatchOptions options;
  options.workers = 2;
  const auto result = exec::simulateBatch(circuits, options);
  // the merged registry reflects real work from every worker's package
  EXPECT_GT(result.stats.vectorTable.lookups, 0U);
  EXPECT_GT(result.stats.apply.total(), 0U);
}

TEST(ExecTest, PreCancelledBatchSkipsAllTasks) {
  std::vector<ir::QuantumComputation> circuits;
  for (std::size_t i = 0; i < 4; ++i) {
    circuits.push_back(ir::builders::qft(4));
  }
  exec::BatchOptions options;
  options.workers = 2;
  options.cancel.cancel();
  const auto result = exec::simulateBatch(circuits, options);
  ASSERT_EQ(result.circuits.size(), 4U);
  for (const auto& c : result.circuits) {
    EXPECT_TRUE(c.cancelled);
    EXPECT_FALSE(c.ok());
  }
}

// --- chunked parallel sampling ---------------------------------------------

TEST(ExecTest, ParallelSamplingIsDeterministicAcrossWorkerCounts) {
  const auto qc = ir::builders::qft(5);
  constexpr std::size_t shots = 2048; // four 512-shot chunks
  exec::BatchOptions serial;
  serial.workers = 1;
  serial.seed = 7;
  const auto a = exec::sampleParallel(qc, shots, serial);

  exec::BatchOptions parallel = serial;
  parallel.workers = 4;
  const auto b = exec::sampleParallel(qc, shots, parallel);

  EXPECT_EQ(a.shots, shots);
  EXPECT_EQ(a.counts, b.counts);
  std::size_t total = 0;
  for (const auto& [bits, n] : a.counts) {
    EXPECT_EQ(bits.size(), 5U);
    total += n;
  }
  EXPECT_EQ(total, shots);
}

TEST(ExecTest, ParallelSamplingHandlesPartialFinalChunk) {
  const auto qc = ir::builders::ghz(3);
  exec::BatchOptions options;
  options.workers = 2;
  options.seed = 1;
  const auto result = exec::sampleParallel(qc, 700, options); // 512 + 188
  std::size_t total = 0;
  for (const auto& [bits, n] : result.counts) {
    total += n;
  }
  EXPECT_EQ(total, 700U);
  // GHZ: only the all-zeros and all-ones outcomes occur
  EXPECT_LE(result.counts.size(), 2U);
}

// --- suite execution over circuit files ------------------------------------

TEST(ExecTest, CollectCircuitFilesSortsAndFilters) {
  const auto files = exec::collectCircuitFiles(CIRCUITS);
  ASSERT_GE(files.size(), 5U);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  for (const auto& f : files) {
    const bool qasm = f.size() > 5 && f.rfind(".qasm") == f.size() - 5;
    const bool real = f.size() > 5 && f.rfind(".real") == f.size() - 5;
    EXPECT_TRUE(qasm || real) << f;
  }
  EXPECT_THROW(exec::collectCircuitFiles(CIRCUITS + "/nonexistent"),
               std::runtime_error);
}

TEST(ExecTest, SuiteRunMatchesSerialAndCapturesBadFiles) {
  auto files = exec::collectCircuitFiles(CIRCUITS);
  files.push_back(CIRCUITS + "/nonexistent.qasm");

  exec::BatchOptions serial;
  serial.workers = 1;
  serial.seed = 5;
  const auto a = exec::runSuite(files, serial);

  exec::BatchOptions parallel = serial;
  parallel.workers = 4;
  const auto b = exec::runSuite(files, parallel);

  ASSERT_EQ(a.circuits.size(), files.size());
  ASSERT_EQ(b.circuits.size(), files.size());
  EXPECT_EQ(a.failures(), 1U); // only the nonexistent file fails
  EXPECT_EQ(b.failures(), 1U);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(a.circuits[i].name, b.circuits[i].name);
    EXPECT_EQ(a.circuits[i].finalNodes, b.circuits[i].finalNodes);
    EXPECT_EQ(a.circuits[i].error.empty(), b.circuits[i].error.empty());
  }
  EXPECT_FALSE(a.circuits.back().error.empty());
}

// --- cooperative cancellation ----------------------------------------------

TEST(ExecTest, CancellationTokenSharesStateAcrossCopies) {
  exec::CancellationToken token;
  exec::CancellationToken copy = token;
  EXPECT_FALSE(token.cancelled());
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
  ASSERT_NE(token.flag(), nullptr);
  EXPECT_TRUE(token.flag()->load());
}

TEST(ExecTest, PreCancelledFlagStopsAlternatingCheckAtFirstGate) {
  const auto g1 = ir::builders::qft(4);
  const auto g2 = ir::decomposeToNativeGates(g1, true);
  const verify::EquivalenceChecker checker(g1, g2);

  Package pkg(4);
  std::atomic<bool> cancel{true};
  const auto result =
      checker.checkAlternating(pkg, verify::Strategy::Proportional, &cancel);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.gatesApplied, 0U);

  // without the flag the same check concludes
  Package fresh(4);
  const auto full =
      checker.checkAlternating(fresh, verify::Strategy::Proportional);
  EXPECT_FALSE(full.cancelled);
  EXPECT_TRUE(full.consideredEquivalent());
}

// --- portfolio equivalence checking ----------------------------------------

TEST(PortfolioTest, AgreesWithSerialCheckerOnEquivalentPair) {
  const auto g1 = ir::builders::qft(4);
  const auto g2 = ir::decomposeToNativeGates(g1, true);

  Package pkg(4);
  const auto serial =
      verify::EquivalenceChecker(g1, g2).checkAlternating(pkg);
  ASSERT_TRUE(serial.consideredEquivalent());

  const auto portfolio = exec::checkPortfolio(g1, g2);
  EXPECT_FALSE(portfolio.cancelled);
  EXPECT_EQ(portfolio.result.equivalence, serial.equivalence);
  EXPECT_FALSE(portfolio.winner.empty());
  // both alternating directions plus the simulation prover were raced
  ASSERT_EQ(portfolio.entries.size(), 3U);
  std::size_t conclusive = 0;
  for (const auto& entry : portfolio.entries) {
    EXPECT_FALSE(entry.name.empty());
    if (entry.conclusive) {
      ++conclusive;
      EXPECT_FALSE(entry.result.cancelled);
    }
  }
  EXPECT_GE(conclusive, 1U);
}

TEST(PortfolioTest, DetectsNonEquivalentPair) {
  const auto g1 = ir::builders::qft(4);
  auto g2 = ir::decomposeToNativeGates(g1, true);
  g2.x(0); // corrupt the compiled circuit

  const auto portfolio = exec::checkPortfolio(g1, g2);
  EXPECT_FALSE(portfolio.cancelled);
  EXPECT_EQ(portfolio.result.equivalence, verify::Equivalence::NotEquivalent);
}

TEST(PortfolioTest, HonorsStrategyAndSimulationOptions) {
  const auto g1 = ir::builders::qft(3);
  const auto g2 = ir::decomposeToNativeGates(g1, true);
  exec::PortfolioOptions options;
  options.includeSimulation = false;
  options.strategy = verify::Strategy::OneToOne;
  const auto portfolio = exec::checkPortfolio(g1, g2, options);
  ASSERT_EQ(portfolio.entries.size(), 2U); // no simulation entry
  EXPECT_TRUE(portfolio.result.consideredEquivalent());
}

TEST(PortfolioTest, CallerCancellationStopsTheWholePortfolio) {
  const auto g1 = ir::builders::qft(4);
  const auto g2 = ir::decomposeToNativeGates(g1, true);
  exec::PortfolioOptions options;
  options.cancel.cancel(); // fired before the race starts
  const auto portfolio = exec::checkPortfolio(g1, g2, options);
  EXPECT_TRUE(portfolio.cancelled);
  EXPECT_TRUE(portfolio.winner.empty());
  for (const auto& entry : portfolio.entries) {
    EXPECT_FALSE(entry.conclusive);
  }
}

} // namespace
} // namespace qdd
