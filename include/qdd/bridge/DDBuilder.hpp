#pragma once

#include "qdd/dd/Package.hpp"
#include "qdd/ir/QuantumComputation.hpp"

#include <cstdint>
#include <string>

namespace qdd::bridge {

class GateDDCache;

/// Which engine applies gates to state DDs.
enum class ApplyMode : std::uint8_t {
  /// Direct Package::applyGate kernels for (multi-)controlled single-qubit
  /// gates and SWAP; the gate-DD cache serves the two-qubit unitaries the
  /// kernels do not cover. The default.
  Fast,
  /// The original makeGateDD + multiply path, bypassing kernels and cache —
  /// the ablation baseline benches and tests compare against.
  General,
};

[[nodiscard]] std::string toString(ApplyMode mode);
/// Parses the QDD_APPLY environment variable ("fast" | "general"); unset or
/// unrecognized values yield ApplyMode::Fast.
[[nodiscard]] ApplyMode applyModeFromEnv();
/// Process-wide apply mode: initialized from QDD_APPLY on first use,
/// overridable for ablation runs.
[[nodiscard]] ApplyMode globalApplyMode();
void setGlobalApplyMode(ApplyMode mode);

/// Builds the DD of the unitary matrix realized by `op` on an `n`-qubit
/// system. Throws std::invalid_argument for non-unitary operations
/// (measure/reset/classic-controlled); barriers yield the identity.
mEdge getDD(const ir::Operation& op, std::size_t n, Package& pkg);

/// DD of the inverse (conjugate transpose) of `op`.
mEdge getInverseDD(const ir::Operation& op, std::size_t n, Package& pkg);

/// Builds the full system matrix U = U_{m-1} ... U_0 of a purely unitary
/// circuit (paper Sec. II: "the functionality of a given circuit G can be
/// obtained as a unitary system matrix"). Reference counts are managed
/// internally; the returned edge is NOT reference-held.
mEdge buildFunctionality(const ir::QuantumComputation& qc, Package& pkg);

/// Statistics-collecting variant: reports the maximum number of nodes of
/// any intermediate DD (used to reproduce Ex. 12's node-count comparison).
struct BuildStats {
  std::size_t maxNodes = 0;     ///< peak intermediate DD size
  std::size_t finalNodes = 0;   ///< size of the final DD
  std::size_t appliedGates = 0; ///< number of gate DDs multiplied
};
mEdge buildFunctionality(const ir::QuantumComputation& qc, Package& pkg,
                         BuildStats& stats);

/// Applies one unitary operation to a state DD according to `mode` (the
/// global mode by default): the direct applyGate/applySwap kernels where they
/// exist, the gate-DD cache (when one is passed) plus the general multiply
/// for the rest. Barriers return the state unchanged; compound operations
/// fold over their members. Throws std::invalid_argument for non-unitary
/// operations. The returned edge is NOT reference-held.
vEdge applyOperation(const ir::Operation& op, std::size_t n,
                     const vEdge& state, Package& pkg,
                     GateDDCache* cache = nullptr);
vEdge applyOperation(const ir::Operation& op, std::size_t n,
                     const vEdge& state, Package& pkg, ApplyMode mode,
                     GateDDCache* cache = nullptr);

/// Simulates a purely unitary circuit on the given initial state and returns
/// the final state DD (reference counts managed internally; result not
/// reference-held). Gates are applied through `applyOperation` under the
/// global apply mode. For circuits with measurements/resets use
/// sim::SimulationSession.
vEdge simulate(const ir::QuantumComputation& qc, const vEdge& initial,
               Package& pkg);
vEdge simulate(const ir::QuantumComputation& qc, const vEdge& initial,
               Package& pkg, BuildStats& stats);

} // namespace qdd::bridge
