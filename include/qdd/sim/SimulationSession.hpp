#pragma once

#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/bridge/GateDDCache.hpp"
#include "qdd/dd/Package.hpp"
#include "qdd/ir/QuantumComputation.hpp"

#include <atomic>
#include <functional>
#include <random>
#include <vector>

namespace qdd::sim {

/// Interactive circuit-simulation session replicating the behaviour of the
/// tool's simulation tab (paper Sec. IV-B): step forward/backward through the
/// operations, run to the end (stopping at "special operations"), and
/// resolve measurement/reset outcomes either randomly or through a
/// caller-provided chooser (the tool's pop-up dialog).
class SimulationSession {
public:
  /// Invoked when a qubit about to be measured/reset is in superposition;
  /// receives the qubit and the probabilities of reading |0> and |1> and
  /// returns the chosen outcome (0 or 1). Mirrors the pop-up dialog of the
  /// tool ("displays the probabilities for obtaining |0> and |1>").
  using OutcomeChooser = std::function<int(Qubit, double p0, double p1)>;

  SimulationSession(const ir::QuantumComputation& circuit, Package& package,
                    std::uint64_t seed = 0);
  ~SimulationSession();

  SimulationSession(const SimulationSession&) = delete;
  SimulationSession& operator=(const SimulationSession&) = delete;

  /// Replaces the random default with an explicit outcome chooser.
  void setOutcomeChooser(OutcomeChooser chooser) {
    outcomeChooser = std::move(chooser);
  }

  // --- inspection ---------------------------------------------------------

  [[nodiscard]] const vEdge& state() const noexcept { return current; }
  [[nodiscard]] const ir::QuantumComputation& circuit() const noexcept {
    return qc;
  }
  /// Index of the operation the next stepForward() would apply.
  [[nodiscard]] std::size_t position() const noexcept { return pos; }
  [[nodiscard]] std::size_t numOperations() const noexcept {
    return qc.size();
  }
  [[nodiscard]] bool atEnd() const noexcept { return pos == qc.size(); }
  [[nodiscard]] bool atStart() const noexcept { return pos == 0; }
  /// The operation the next stepForward() applies (nullptr at the end).
  [[nodiscard]] const ir::Operation* nextOperation() const;
  [[nodiscard]] const std::vector<bool>& classicalBits() const noexcept {
    return classicals;
  }
  /// Random numbers drawn for measurement and reset outcomes since
  /// construction (the chooser and deterministic outcomes draw none).
  [[nodiscard]] std::uint64_t outcomeDraws() const noexcept { return draws; }

  /// Current DD size (counted when the state last changed, so reading it
  /// walks nothing) and the peak over the whole session.
  [[nodiscard]] std::size_t currentNodes() const noexcept { return nodes; }
  [[nodiscard]] std::size_t peakNodes() const noexcept { return peak; }
  /// DD size after each applied operation (for size-over-time plots).
  [[nodiscard]] const std::vector<std::size_t>& nodeHistory() const noexcept {
    return history;
  }
  /// Table-pressure snapshot after each applied operation (same indexing as
  /// `nodeHistory`), so steppers can plot cache/GC behavior over time.
  [[nodiscard]] const std::vector<mem::TablePressure>&
  pressureHistory() const noexcept {
    return pressures;
  }

  /// Per-step profile recorded for every applied operation (same indexing as
  /// `nodeHistory`): wall time of the step and the active-nodes-per-level
  /// breakdown of the resulting DD. Always captured — it costs one clock
  /// read and reuses the node walk `nodeHistory` needs anyway — and exported
  /// by the trace exporter and the observability layer.
  struct StepProfile {
    double durationUs = 0.;
    std::vector<std::size_t> nodesPerLevel;
  };
  [[nodiscard]] const std::vector<StepProfile>&
  stepProfiles() const noexcept {
    return profiles;
  }

  /// The session's gate-DD cache — exposed so steppers and qdd-tool can
  /// report cache hit ratios.
  [[nodiscard]] const bridge::GateDDCache& gateCache() const noexcept {
    return cache;
  }

  // --- navigation (the -> / <- / |<< / >>| buttons) -------------------------

  /// Applies the next operation; returns false at the end of the circuit.
  bool stepForward();
  /// Restores the state before the previously applied operation (works
  /// across measurements/resets by snapshotting). Returns false at start.
  bool stepBackward();
  /// Steps forward until the end, stopping after "special operations"
  /// (barrier breakpoints, measurements, resets). Returns steps taken.
  ///
  /// `cancel`, when non-null, is polled before every gate: once it reads
  /// true the run stops at that gate boundary (the already applied prefix
  /// stays applied). This is how the qdd::service layer enforces
  /// per-request deadlines — the flag is a plain atomic so this layer stays
  /// independent of qdd::exec (see exec::CancellationToken::flag()).
  std::size_t runToEnd(const std::atomic<bool>* cancel = nullptr);
  /// Rewinds to the initial state. Returns steps taken.
  std::size_t runToStart();

  // --- spill/restore (qdd::service session spill tier) ---------------------

  /// Adopts `state` (already interned in this session's package) as the
  /// current state at `position`, with classical bits and peak carried
  /// over — the restore half of a disk-spill round trip. Snapshot history
  /// is not part of the spill image: stepBackward() returns false until
  /// the next forward step, and runToStart() rewinds by rebuilding the
  /// zero state instead of replaying snapshots. Expects a freshly
  /// constructed session with the spilled session's seed: the outcome RNG
  /// skips `outcomeDraws` numbers, so later measurements continue the
  /// stream they were drawing from.
  void restoreTo(const vEdge& state, std::size_t position,
                 std::vector<bool> classicalBits, std::size_t peakNodes,
                 std::uint64_t outcomeDraws);

private:
  /// True if the operation acts as a breakpoint for runToEnd().
  static bool isSpecial(const ir::Operation& op);
  void applyUnitary(const ir::Operation& op);
  void applyMeasurement(const ir::NonUnitaryOperation& op);
  void applyReset(const ir::NonUnitaryOperation& op);
  int chooseOutcome(Qubit q, double p1);
  void pushSnapshot();

  struct Snapshot {
    vEdge state;
    std::vector<bool> classicals;
    std::size_t nodes = 0;
  };

  ir::QuantumComputation qc; ///< owned copy: sessions outlive caller scopes
  Package& pkg;
  bridge::GateDDCache cache;
  vEdge current;
  std::size_t nodes = 0; ///< Package::size(current)
  std::vector<bool> classicals;
  std::vector<Snapshot> snapshots; ///< one per applied operation
  std::size_t pos = 0;
  std::mt19937_64 rng;
  std::uint64_t draws = 0; ///< numbers taken from `rng`
  OutcomeChooser outcomeChooser;
  std::size_t peak = 0;
  std::vector<std::size_t> history;
  std::vector<mem::TablePressure> pressures;
  std::vector<StepProfile> profiles;
};

/// Result of repeated (weak) simulation.
struct SamplingResult {
  std::map<std::string, std::size_t> counts; ///< bitstring -> occurrences
  std::size_t shots = 0;
};

/// Reusable sampler bound to one circuit and one package. For circuits whose
/// only non-unitary operations are final measurements it pays the strong
/// simulation once at construction and keeps the final state referenced, so
/// every subsequent sample() call is pure non-destructive DD sampling — the
/// engine behind chunked parallel sampling (qdd::exec::sampleParallel), where
/// one worker serves many shot chunks from the same final state. Dynamic
/// circuits (mid-circuit measurements, resets, classically controlled
/// operations) fall back to per-shot execution inside sample().
///
/// sample(shots, seed) depends only on its arguments (and the circuit), not
/// on previous calls: each call seeds a fresh RNG stream.
class CircuitSampler {
public:
  /// The package must outlive the sampler; the sampler keeps its final-state
  /// reference until destruction.
  CircuitSampler(const ir::QuantumComputation& circuit, Package& package);
  ~CircuitSampler();

  CircuitSampler(const CircuitSampler&) = delete;
  CircuitSampler& operator=(const CircuitSampler&) = delete;

  [[nodiscard]] bool isDynamicCircuit() const noexcept { return dynamic; }

  /// Samples `shots` measurement outcomes with an RNG seeded by `seed`.
  [[nodiscard]] SamplingResult sample(std::size_t shots, std::uint64_t seed);

private:
  ir::QuantumComputation qc; ///< owned copy, like SimulationSession
  Package& pkg;
  /// Final measurement map qubit -> classical bit.
  std::vector<std::pair<Qubit, std::size_t>> measurements;
  bool dynamic = false;
  vEdge finalState{}; ///< referenced final state (static circuits only)
};

/// Samples `shots` measurement outcomes from the circuit ([16]-style weak
/// simulation): for circuits whose only non-unitary operations are final
/// measurements, the state is simulated once and then sampled repeatedly
/// (non-destructively); dynamic circuits (mid-circuit measurements, resets,
/// classically controlled operations) fall back to per-shot execution.
///
/// The returned bitstrings run over the classical bits c_{m-1}...c_0 if the
/// circuit measures, and over all qubits q_{n-1}...q_0 otherwise.
SamplingResult sampleCircuit(const ir::QuantumComputation& qc,
                             std::size_t shots, std::uint64_t seed = 0);

/// Same, but on a caller-provided package (the per-worker package in batch
/// execution) instead of a package of its own.
SamplingResult sampleCircuit(const ir::QuantumComputation& qc,
                             std::size_t shots, std::uint64_t seed,
                             Package& pkg);

} // namespace qdd::sim
