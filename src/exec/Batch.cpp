#include "qdd/exec/Batch.hpp"

#include "qdd/exec/ThreadPool.hpp"
#include "qdd/obs/Obs.hpp"
#include "qdd/parser/qasm/Parser.hpp"
#include "qdd/parser/real/RealParser.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>

namespace qdd::exec {

std::uint64_t taskSeed(std::uint64_t seed, std::uint64_t taskIndex) noexcept {
  // splitmix64 finalizer over seed XOR an odd multiple of the index. The
  // +1 keeps task 0 with user seed 0 away from the all-zero fixed point.
  std::uint64_t z = seed ^ ((taskIndex + 1) * 0x9E3779B97F4A7C15ULL);
  z ^= z >> 30U;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27U;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31U;
  return z;
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Per-worker engine state: the private package plus a final-state sampler
/// cached for sampleParallel (all chunks of one circuit share the strong
/// simulation their worker already paid for).
struct WorkerState {
  std::unique_ptr<Package> pkg;
  std::unique_ptr<sim::CircuitSampler> sampler;

  Package& package(std::size_t qubits) {
    if (!pkg) {
      pkg = std::make_unique<Package>(std::max<std::size_t>(qubits, 1));
    }
    return *pkg;
  }
};

/// Simulates (and optionally samples) one circuit on the worker's package.
/// Fills every CircuitResult field except name/worker/error handling, which
/// the callers own.
void runCircuitTask(const ir::QuantumComputation& qc, Package& pkg,
                    std::uint64_t seed, std::size_t shots,
                    CircuitResult& out) {
  obs::ScopedSpan span("exec", "task");
  const auto t0 = Clock::now();
  out.qubits = qc.numQubits();
  out.operations = qc.size();
  if (shots > 0) {
    out.sampling = sim::sampleCircuit(qc, shots, seed, pkg);
  } else {
    sim::SimulationSession session(qc, pkg, seed);
    while (session.stepForward()) {
    }
    out.finalNodes = Package::size(session.state());
    out.peakNodes = session.peakNodes();
  }
  out.wallMs = msSince(t0);
  span.arg("qubits", out.qubits);
  span.arg("operations", out.operations);
  span.arg("wallMs", out.wallMs);
}

void mergeWorkerStats(BatchResult& result,
                      const std::vector<WorkerState>& workers) {
  for (const auto& state : workers) {
    if (state.pkg) {
      result.stats.merge(state.pkg->statistics());
    }
  }
}

} // namespace

BatchResult simulateBatch(const std::vector<ir::QuantumComputation>& circuits,
                          const BatchOptions& options) {
  obs::ScopedSpan span("exec", "simulateBatch");
  const auto t0 = Clock::now();
  BatchResult result;
  result.circuits.resize(circuits.size());

  std::size_t maxQubits = 1;
  for (const auto& qc : circuits) {
    maxQubits = std::max(maxQubits, qc.numQubits());
  }

  ThreadPool pool(options.workers);
  result.workers = pool.workerCount();
  std::vector<WorkerState> workers(pool.workerCount());

  pool.parallelFor(circuits.size(), [&](std::size_t i, std::size_t w) {
    CircuitResult& out = result.circuits[i];
    out.name = circuits[i].name();
    out.worker = w;
    if (options.cancel.cancelled()) {
      out.cancelled = true;
      return;
    }
    try {
      runCircuitTask(circuits[i], workers[w].package(maxQubits),
                     taskSeed(options.seed, i), options.shots, out);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  });

  mergeWorkerStats(result, workers);
  result.wallMs = msSince(t0);
  span.arg("circuits", circuits.size());
  span.arg("workers", result.workers);
  span.arg("wallMs", result.wallMs);
  return result;
}

sim::SamplingResult sampleParallel(const ir::QuantumComputation& qc,
                                   std::size_t shots,
                                   const BatchOptions& options) {
  obs::ScopedSpan span("exec", "sampleParallel");
  // Fixed chunk granularity: the chunk list (and every chunk's seed) depends
  // only on the shot count, so merged counts are identical for any worker
  // count. 512 shots amortize the per-chunk sampler setup while still giving
  // an 8-worker pool parallelism from ~4k shots upward.
  constexpr std::size_t CHUNK = 512;
  sim::SamplingResult merged;
  if (shots == 0) {
    return merged;
  }
  const std::size_t numChunks = (shots + CHUNK - 1) / CHUNK;

  ThreadPool pool(options.workers);
  std::vector<WorkerState> workers(pool.workerCount());
  std::vector<sim::SamplingResult> chunks(numChunks);

  pool.parallelFor(numChunks, [&](std::size_t i, std::size_t w) {
    if (options.cancel.cancelled()) {
      return;
    }
    const std::size_t chunkShots = std::min(CHUNK, shots - i * CHUNK);
    WorkerState& state = workers[w];
    Package& pkg = state.package(qc.numQubits());
    if (!state.sampler) {
      // One strong simulation per worker; every chunk it executes samples
      // from that cached final state (dynamic circuits fall back to
      // per-shot execution inside the sampler).
      state.sampler = std::make_unique<sim::CircuitSampler>(qc, pkg);
    }
    chunks[i] = state.sampler->sample(chunkShots, taskSeed(options.seed, i));
  });

  // Deterministic merge in chunk order.
  for (const auto& chunk : chunks) {
    merged.shots += chunk.shots;
    for (const auto& [bits, count] : chunk.counts) {
      merged.counts[bits] += count;
    }
  }
  span.arg("shots", merged.shots);
  span.arg("chunks", numChunks);
  return merged;
}

std::vector<std::string> collectCircuitFiles(const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    throw std::runtime_error("not a directory: " + directory);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".qasm" || ext == ".real") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw std::runtime_error("cannot read directory: " + directory);
  }
  std::sort(files.begin(), files.end());
  return files;
}

namespace {

ir::QuantumComputation loadCircuit(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".real") == 0) {
    return real::parseFile(path);
  }
  return qasm::parseFile(path);
}

} // namespace

BatchResult runSuite(const std::vector<std::string>& files,
                     const BatchOptions& options) {
  obs::ScopedSpan span("exec", "runSuite");
  const auto t0 = Clock::now();
  BatchResult result;
  result.circuits.resize(files.size());

  ThreadPool pool(options.workers);
  result.workers = pool.workerCount();
  std::vector<WorkerState> workers(pool.workerCount());

  pool.parallelFor(files.size(), [&](std::size_t i, std::size_t w) {
    CircuitResult& out = result.circuits[i];
    out.name = files[i];
    out.worker = w;
    if (options.cancel.cancelled()) {
      out.cancelled = true;
      return;
    }
    try {
      const ir::QuantumComputation qc = loadCircuit(files[i]);
      runCircuitTask(qc, workers[w].package(qc.numQubits()),
                     taskSeed(options.seed, i), options.shots, out);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  });

  mergeWorkerStats(result, workers);
  result.wallMs = msSince(t0);
  span.arg("files", files.size());
  span.arg("workers", result.workers);
  span.arg("failures", result.failures());
  return result;
}

} // namespace qdd::exec
