#include "qdd/verify/EquivalenceChecker.hpp"

#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/bridge/GateDDCache.hpp"
#include "qdd/obs/Obs.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace qdd::verify {

std::string toString(Equivalence e) {
  switch (e) {
  case Equivalence::Equivalent:
    return "equivalent";
  case Equivalence::EquivalentUpToGlobalPhase:
    return "equivalent up to global phase";
  case Equivalence::NotEquivalent:
    return "not equivalent";
  case Equivalence::ProbablyEquivalent:
    return "probably equivalent";
  }
  return "?";
}

std::string toString(Strategy s) {
  switch (s) {
  case Strategy::Sequential:
    return "sequential";
  case Strategy::OneToOne:
    return "one-to-one";
  case Strategy::Proportional:
    return "proportional";
  case Strategy::BarrierSync:
    return "barrier-sync";
  }
  return "?";
}

EquivalenceChecker::EquivalenceChecker(const ir::QuantumComputation& first,
                                       const ir::QuantumComputation& second,
                                       double tolerance)
    : g1(first), g2(second), tol(tolerance) {
  if (g1.numQubits() != g2.numQubits()) {
    // Same restriction as the paper's tool (Sec. IV-C); circuits with
    // differing ancillary/garbage qubits are referred to full-fledged QCEC.
    throw std::invalid_argument(
        "EquivalenceChecker: circuits must have the same number of qubits");
  }
  if (g1.numQubits() == 0) {
    throw std::invalid_argument("EquivalenceChecker: empty circuits");
  }
  if (!g1.isPurelyUnitary() || !g2.isPurelyUnitary()) {
    // "Measurement, Reset, and Classically-Controlled Operations are
    // currently not supported due to their non-unitary nature" (Sec. IV-C).
    throw std::invalid_argument(
        "EquivalenceChecker: circuits must be purely unitary");
  }
}

Equivalence EquivalenceChecker::classifyAgainstIdentity(Package& pkg,
                                                        const mEdge& e) const {
  const mEdge id = pkg.makeIdent(g1.numQubits());
  if (e.p != id.p) {
    return Equivalence::NotEquivalent;
  }
  const ComplexValue w = e.w.toValue();
  if (w.approximatelyEquals(ComplexValue{1., 0.}, tol)) {
    return Equivalence::Equivalent;
  }
  if (std::abs(w.mag() - 1.) <= tol) {
    return Equivalence::EquivalentUpToGlobalPhase;
  }
  return Equivalence::NotEquivalent;
}

CheckResult EquivalenceChecker::checkByConstruction(Package& pkg) const {
  obs::ScopedSpan span("verify", "construction");
  CheckResult result;
  result.method = "construction";
  bridge::BuildStats s1;
  bridge::BuildStats s2;
  const mEdge u1 = bridge::buildFunctionality(g1, pkg, s1);
  pkg.incRef(u1);
  const mEdge u2 = bridge::buildFunctionality(g2, pkg, s2);
  pkg.incRef(u2);
  result.maxNodes = std::max(s1.maxNodes, s2.maxNodes);
  result.gatesApplied = s1.appliedGates + s2.appliedGates;
  result.finalNodes = std::max(s1.finalNodes, s2.finalNodes);
  // Canonicity (paper Sec. III-C): "the equivalence of two decision diagrams
  // can be concluded by comparing their root pointers".
  if (u1.p == u2.p) {
    const ComplexValue ratio = u1.w.toValue() / u2.w.toValue();
    if (ratio.approximatelyEquals(ComplexValue{1., 0.}, tol)) {
      result.equivalence = Equivalence::Equivalent;
    } else if (std::abs(ratio.mag() - 1.) <= tol) {
      result.equivalence = Equivalence::EquivalentUpToGlobalPhase;
    }
  }
  pkg.decRef(u1);
  pkg.decRef(u2);
  pkg.garbageCollect();
  span.arg("maxNodes", result.maxNodes);
  span.arg("gatesApplied", result.gatesApplied);
  span.arg("result", toString(result.equivalence));
  return result;
}

CheckResult
EquivalenceChecker::checkAlternating(Package& pkg, Strategy strategy,
                                     const std::atomic<bool>* cancel) const {
  obs::ScopedSpan span("verify", "alternating");
  CheckResult result;
  result.method = "alternating/" + toString(strategy);
  const std::size_t n = g1.numQubits();
  pkg.resize(n);

  // Gate sequences; for G2 remember the barrier-delimited chunk boundaries.
  std::vector<const ir::Operation*> first;
  for (const auto& op : g1) {
    if (op->type() != ir::OpType::Barrier) {
      first.push_back(op.get());
    }
  }
  std::vector<const ir::Operation*> second;
  std::vector<std::size_t> chunkEnds; // indices into `second`
  for (const auto& op : g2) {
    if (op->type() == ir::OpType::Barrier) {
      if (chunkEnds.empty() || chunkEnds.back() != second.size()) {
        chunkEnds.push_back(second.size());
      }
      continue;
    }
    second.push_back(op.get());
  }
  if (chunkEnds.empty() || chunkEnds.back() != second.size()) {
    chunkEnds.push_back(second.size());
  }

  // One gate-DD cache shared across the whole alternating run: the scheme
  // applies the same gate set from both sides, so left-side entries pay off
  // again on the right (and vice versa for self-inverse gates).
  bridge::GateDDCache gateCache(pkg);

  mEdge e = pkg.makeIdent(n);
  pkg.incRef(e);
  result.maxNodes = Package::size(e);

  std::size_t i1 = 0; // next gate of G1 (applied from the left)
  std::size_t i2 = 0; // next gate of G2^{-1} (applied from the right)
  std::size_t chunk = 0;

  // Polled at every gate boundary; relaxed is enough — the flag is sticky
  // and missing it by one gate only costs one extra multiplication.
  const auto stop = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };

  // Each alternating iteration gets its own span so traces show how the
  // intermediate DD breathes around the identity (paper Ex. 12).
  const auto record = [&](const char* side, std::size_t gateIndex) {
    obs::ScopedSpan iteration("verify", "iteration");
    const std::size_t nodes = Package::size(e);
    result.maxNodes = std::max(result.maxNodes, nodes);
    ++result.gatesApplied;
    pkg.garbageCollect();
    iteration.arg("side", std::string(side));
    iteration.arg("gate", gateIndex);
    iteration.arg("nodes", nodes);
  };
  const auto applyFromLeft = [&] {
    const mEdge next = pkg.multiply(gateCache.getDD(*first[i1], n), e);
    pkg.incRef(next);
    pkg.decRef(e);
    e = next;
    ++i1;
    record("left", i1 - 1);
  };
  const auto applyFromRight = [&] {
    const mEdge next = pkg.multiply(e, gateCache.getInverseDD(*second[i2], n));
    pkg.incRef(next);
    pkg.decRef(e);
    e = next;
    ++i2;
    record("right", i2 - 1);
  };

  switch (strategy) {
  case Strategy::Sequential:
    while (!stop() && i1 < first.size()) {
      applyFromLeft();
    }
    while (!stop() && i2 < second.size()) {
      applyFromRight();
    }
    break;
  case Strategy::OneToOne:
    while (!stop() && (i1 < first.size() || i2 < second.size())) {
      if (i1 < first.size()) {
        applyFromLeft();
      }
      if (!stop() && i2 < second.size()) {
        applyFromRight();
      }
    }
    break;
  case Strategy::Proportional: {
    const std::size_t m1 = std::max<std::size_t>(first.size(), 1);
    const std::size_t m2 = second.size();
    // apply ~m2/m1 gates of G2^{-1} per gate of G1, distributed evenly
    std::size_t applied2Target = 0;
    while (!stop() && i1 < first.size()) {
      applyFromLeft();
      applied2Target = (i1 * m2) / m1;
      while (!stop() && i2 < std::min(applied2Target, m2)) {
        applyFromRight();
      }
    }
    while (!stop() && i2 < second.size()) {
      applyFromRight();
    }
    break;
  }
  case Strategy::BarrierSync:
    // Paper Ex. 12: one gate from G, then all gates from G' up to the next
    // barrier.
    while (!stop() && (i1 < first.size() || i2 < second.size())) {
      if (i1 < first.size()) {
        applyFromLeft();
      }
      const std::size_t end =
          chunk < chunkEnds.size() ? chunkEnds[chunk] : second.size();
      while (!stop() && i2 < end) {
        applyFromRight();
      }
      ++chunk;
    }
    break;
  }

  result.finalNodes = Package::size(e);
  if (stop() && (i1 < first.size() || i2 < second.size())) {
    // Abandoned mid-run: the intermediate DD proves nothing, so skip the
    // identity classification and report the partial run as cancelled.
    result.cancelled = true;
  } else {
    result.equivalence = classifyAgainstIdentity(pkg, e);
  }
  result.gateCacheLookups = gateCache.lookups();
  result.gateCacheHits = gateCache.hits();
  pkg.decRef(e);
  gateCache.clear(); // release pinned gate DDs before collecting
  pkg.garbageCollect();
  span.arg("strategy", toString(strategy));
  span.arg("maxNodes", result.maxNodes);
  span.arg("gatesApplied", result.gatesApplied);
  span.arg("gateCacheHitRatio", result.gateCacheHitRatio());
  span.arg("result", toString(result.equivalence));
  return result;
}

CheckResult
EquivalenceChecker::checkBySimulation(Package& pkg, std::size_t numStimuli,
                                      std::uint64_t seed,
                                      const std::atomic<bool>* cancel) const {
  obs::ScopedSpan span("verify", "simulation");
  CheckResult result;
  result.method = "simulation";
  const std::size_t n = g1.numQubits();
  pkg.resize(n);
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution bit(0.5);

  result.equivalence = Equivalence::ProbablyEquivalent;
  for (std::size_t s = 0; s < numStimuli; ++s) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      result.cancelled = true;
      break;
    }
    std::vector<bool> bits(n);
    for (std::size_t k = 0; k < n; ++k) {
      // include the all-zero state as the first stimulus
      bits[k] = s == 0 ? false : bit(rng);
    }
    const vEdge input = pkg.makeBasisState(n, bits);
    pkg.incRef(input);
    bridge::BuildStats s1;
    bridge::BuildStats s2;
    const vEdge out1 = bridge::simulate(g1, input, pkg, s1);
    pkg.incRef(out1);
    const vEdge out2 = bridge::simulate(g2, input, pkg, s2);
    pkg.incRef(out2);
    result.gatesApplied += s1.appliedGates + s2.appliedGates;
    result.maxNodes =
        std::max({result.maxNodes, s1.maxNodes, s2.maxNodes});
    const double fid = pkg.fidelity(out1, out2);
    pkg.decRef(input);
    pkg.decRef(out1);
    pkg.decRef(out2);
    if (std::abs(fid - 1.) > tol) {
      result.equivalence = Equivalence::NotEquivalent;
      break;
    }
  }
  pkg.garbageCollect();
  span.arg("maxNodes", result.maxNodes);
  span.arg("gatesApplied", result.gatesApplied);
  span.arg("result", toString(result.equivalence));
  return result;
}

} // namespace qdd::verify
