#include "qdd/bridge/DDBuilder.hpp"

#include "qdd/bridge/GateDDCache.hpp"
#include "qdd/dd/GateMatrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace qdd::bridge {

namespace {

GateMatrix matrixFor(ir::OpType t, const std::vector<double>& p) {
  switch (t) {
  case ir::OpType::I:
    return I_MAT;
  case ir::OpType::H:
    return H_MAT;
  case ir::OpType::X:
    return X_MAT;
  case ir::OpType::Y:
    return Y_MAT;
  case ir::OpType::Z:
    return Z_MAT;
  case ir::OpType::S:
    return S_MAT;
  case ir::OpType::Sdg:
    return SDG_MAT;
  case ir::OpType::T:
    return T_MAT;
  case ir::OpType::Tdg:
    return TDG_MAT;
  case ir::OpType::V:
    return V_MAT;
  case ir::OpType::Vdg:
    return VDG_MAT;
  case ir::OpType::SX:
    return SX_MAT;
  case ir::OpType::SXdg:
    return SXDG_MAT;
  case ir::OpType::RX:
    return rxMatrix(p.at(0));
  case ir::OpType::RY:
    return ryMatrix(p.at(0));
  case ir::OpType::RZ:
    return rzMatrix(p.at(0));
  case ir::OpType::Phase:
    return phaseMatrix(p.at(0));
  case ir::OpType::U2:
    return u2Matrix(p.at(0), p.at(1));
  case ir::OpType::U3:
    return u3Matrix(p.at(0), p.at(1), p.at(2));
  default:
    throw std::invalid_argument("getDD: no matrix for operation type '" +
                                ir::toString(t) + "'");
  }
}

mEdge getStandardDD(const ir::Operation& op, std::size_t n, Package& pkg) {
  if (op.type() == ir::OpType::SWAP) {
    return pkg.makeSWAPDD(n, op.controls(), op.targets().at(0),
                          op.targets().at(1));
  }
  if (op.type() == ir::OpType::iSWAP || op.type() == ir::OpType::iSWAPdg ||
      op.type() == ir::OpType::DCX) {
    if (!op.controls().empty()) {
      throw std::invalid_argument("getDD: controlled " +
                                  ir::toString(op.type()) +
                                  " is not supported");
    }
    const TwoQubitGateMatrix& mat = op.type() == ir::OpType::iSWAP
                                        ? ISWAP_MAT
                                        : (op.type() == ir::OpType::iSWAPdg
                                               ? ISWAPDG_MAT
                                               : DCX_MAT);
    return pkg.makeTwoQubitGateDD(mat, n, op.targets().at(0),
                                  op.targets().at(1));
  }
  const GateMatrix mat = matrixFor(op.type(), op.parameters());
  return pkg.makeGateDD(mat, n, op.controls(), op.targets().at(0));
}

} // namespace

mEdge getDD(const ir::Operation& op, std::size_t n, Package& pkg) {
  if (op.type() == ir::OpType::Barrier) {
    return pkg.makeIdent(n);
  }
  if (const auto* comp = dynamic_cast<const ir::CompoundOperation*>(&op)) {
    mEdge e = pkg.makeIdent(n);
    for (const auto& sub : comp->operations()) {
      e = pkg.multiply(getDD(*sub, n, pkg), e);
    }
    return e;
  }
  if (!op.isUnitary() || !op.isStandardOperation()) {
    throw std::invalid_argument("getDD: operation '" + op.name() +
                                "' has no unitary matrix");
  }
  return getStandardDD(op, n, pkg);
}

mEdge getInverseDD(const ir::Operation& op, std::size_t n, Package& pkg) {
  auto inverse = op.clone();
  inverse->invert();
  return getDD(*inverse, n, pkg);
}

vEdge applyOperation(const ir::Operation& op, std::size_t n,
                     const vEdge& state, Package& pkg, GateDDCache* cache) {
  if (op.type() == ir::OpType::Barrier) {
    return state;
  }
  if (const auto* comp = dynamic_cast<const ir::CompoundOperation*>(&op)) {
    vEdge e = state;
    for (const auto& sub : comp->operations()) {
      e = applyOperation(*sub, n, e, pkg, cache);
    }
    return e;
  }
  if (!op.isUnitary() || !op.isStandardOperation()) {
    throw std::invalid_argument("applyOperation: operation '" + op.name() +
                                "' has no unitary matrix");
  }
  if (op.type() == ir::OpType::SWAP) {
    return pkg.applySwap(op.targets().at(0), op.targets().at(1),
                         op.controls(), state);
  }
  if (op.type() != ir::OpType::iSWAP && op.type() != ir::OpType::iSWAPdg &&
      op.type() != ir::OpType::DCX) {
    const GateMatrix mat = matrixFor(op.type(), op.parameters());
    return pkg.applyGate(mat, op.targets().at(0), op.controls(), state);
  }
  // Two-qubit unitaries have no direct kernel: the matrix path, served by
  // the cache when one is available.
  pkg.noteApplyFallback();
  const mEdge gate = cache != nullptr ? cache->getDD(op, n) : getDD(op, n, pkg);
  return pkg.multiply(gate, state);
}

mEdge buildFunctionality(const ir::QuantumComputation& qc, Package& pkg) {
  BuildStats stats;
  return buildFunctionality(qc, pkg, stats);
}

mEdge buildFunctionality(const ir::QuantumComputation& qc, Package& pkg,
                         BuildStats& stats) {
  const std::size_t n = qc.numQubits();
  if (n == 0) {
    throw std::invalid_argument("buildFunctionality: empty circuit");
  }
  pkg.resize(n);
  GateDDCache cache(pkg);
  mEdge e = pkg.makeIdent(n);
  pkg.incRef(e);
  stats.maxNodes = std::max(stats.maxNodes, Package::size(e));
  for (const auto& op : qc) {
    if (op->type() == ir::OpType::Barrier) {
      continue;
    }
    const mEdge next = pkg.multiply(cache.getDD(*op, n), e);
    pkg.incRef(next);
    pkg.decRef(e);
    e = next;
    ++stats.appliedGates;
    stats.maxNodes = std::max(stats.maxNodes, Package::size(e));
    pkg.garbageCollect();
  }
  stats.finalNodes = Package::size(e);
  pkg.decRef(e);
  return e;
}

vEdge simulate(const ir::QuantumComputation& qc, const vEdge& initial,
               Package& pkg) {
  BuildStats stats;
  return simulate(qc, initial, pkg, stats);
}

vEdge simulate(const ir::QuantumComputation& qc, const vEdge& initial,
               Package& pkg, BuildStats& stats) {
  const std::size_t n = qc.numQubits();
  if (n == 0) {
    throw std::invalid_argument("simulate: empty circuit");
  }
  pkg.resize(n);
  GateDDCache cache(pkg);
  vEdge state = initial;
  pkg.incRef(state);
  stats.maxNodes = std::max(stats.maxNodes, Package::size(state));
  for (const auto& op : qc) {
    if (op->type() == ir::OpType::Barrier) {
      continue;
    }
    const vEdge next = applyOperation(*op, n, state, pkg, &cache);
    pkg.incRef(next);
    pkg.decRef(state);
    state = next;
    ++stats.appliedGates;
    stats.maxNodes = std::max(stats.maxNodes, Package::size(state));
    pkg.garbageCollect();
  }
  stats.finalNodes = Package::size(state);
  pkg.decRef(state);
  return state;
}

} // namespace qdd::bridge
