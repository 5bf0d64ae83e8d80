#pragma once

#include "qdd/dd/Package.hpp"
#include "qdd/ir/QuantumComputation.hpp"

#include <cstddef>

namespace qdd::bridge {

class GateDDCache;

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

/// Applies one unitary operation to a state DD: the direct
/// applyGate/applySwap kernels where they exist, the gate-DD cache (when one
/// is passed) plus the general multiply for the rest. Barriers return the
/// state unchanged; compound operations fold over their members. Throws
/// std::invalid_argument for non-unitary operations. The returned edge is
/// NOT reference-held.
vEdge applyOperation(const ir::Operation& op, std::size_t n,
                     const vEdge& state, Package& pkg,
                     GateDDCache* cache = nullptr);

/// Simulates a purely unitary circuit on the given initial state and returns
/// the final state DD (reference counts managed internally; result not
/// reference-held). Gates are applied through `applyOperation`. For circuits
/// with measurements/resets use sim::SimulationSession.
vEdge simulate(const ir::QuantumComputation& qc, const vEdge& initial,
               Package& pkg);
vEdge simulate(const ir::QuantumComputation& qc, const vEdge& initial,
               Package& pkg, BuildStats& stats);

} // namespace qdd::bridge
