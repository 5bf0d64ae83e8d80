#include "qdd/sim/SimulationSession.hpp"

#include "qdd/obs/Obs.hpp"

#include <chrono>
#include <numeric>
#include <stdexcept>

namespace qdd::sim {

SimulationSession::SimulationSession(const ir::QuantumComputation& circuit,
                                     Package& package, std::uint64_t seed)
    : qc(circuit), pkg(package), cache(package), rng(seed) {
  if (qc.numQubits() == 0) {
    throw std::invalid_argument("SimulationSession: circuit has no qubits");
  }
  pkg.resize(qc.numQubits());
  current = pkg.makeZeroState(qc.numQubits());
  pkg.incRef(current);
  classicals.assign(qc.numClbits(), false);
  nodes = Package::size(current);
  peak = nodes;
}

SimulationSession::~SimulationSession() {
  pkg.decRef(current);
  for (const auto& snap : snapshots) {
    pkg.decRef(snap.state);
  }
}

const ir::Operation* SimulationSession::nextOperation() const {
  return atEnd() ? nullptr : &qc.at(pos);
}

bool SimulationSession::isSpecial(const ir::Operation& op) {
  switch (op.type()) {
  case ir::OpType::Barrier:
  case ir::OpType::Measure:
  case ir::OpType::Reset:
    return true;
  default:
    return false;
  }
}

void SimulationSession::pushSnapshot() {
  pkg.incRef(current);
  snapshots.push_back({current, classicals, nodes});
}

int SimulationSession::chooseOutcome(Qubit q, double p1) {
  const double tol = pkg.tolerance();
  if (p1 <= tol) {
    return 0; // deterministic, no dialog (as in the tool)
  }
  if (p1 >= 1. - tol) {
    return 1;
  }
  if (outcomeChooser) {
    const int outcome = outcomeChooser(q, 1. - p1, p1);
    if (outcome != 0 && outcome != 1) {
      throw std::invalid_argument("outcome chooser must return 0 or 1");
    }
    return outcome;
  }
  std::uniform_real_distribution<double> dist(0., 1.);
  ++draws;
  return dist(rng) < p1 ? 1 : 0;
}

void SimulationSession::applyUnitary(const ir::Operation& op) {
  const vEdge next =
      bridge::applyOperation(op, qc.numQubits(), current, pkg, &cache);
  pkg.incRef(next);
  pkg.decRef(current);
  current = next;
}

void SimulationSession::applyMeasurement(const ir::NonUnitaryOperation& op) {
  const auto& qubits = op.targets();
  const auto& clbits = op.classics();
  for (std::size_t k = 0; k < qubits.size(); ++k) {
    const Qubit q = qubits[k];
    const double p1 = pkg.probabilityOfOne(current, q);
    const int outcome = chooseOutcome(q, p1);
    pkg.forceMeasureOne(current, q, outcome == 1);
    classicals.at(clbits[k]) = (outcome == 1);
  }
}

void SimulationSession::applyReset(const ir::NonUnitaryOperation& op) {
  for (const Qubit q : op.targets()) {
    const double p1 = pkg.probabilityOfOne(current, q);
    const int outcome = chooseOutcome(q, p1);
    pkg.resetQubitTo(current, q, outcome == 1);
  }
}

bool SimulationSession::stepForward() {
  if (atEnd()) {
    return false;
  }
  const ir::Operation& op = qc.at(pos);
  obs::ScopedSpan span("sim", "step");
  const auto t0 = std::chrono::steady_clock::now();
  pushSnapshot();
  switch (op.type()) {
  case ir::OpType::Barrier:
    break; // no-op; serves as breakpoint only
  case ir::OpType::Measure:
    applyMeasurement(static_cast<const ir::NonUnitaryOperation&>(op));
    break;
  case ir::OpType::Reset:
    applyReset(static_cast<const ir::NonUnitaryOperation&>(op));
    break;
  case ir::OpType::ClassicControlled: {
    const auto& cc = static_cast<const ir::ClassicControlledOperation&>(op);
    if (cc.conditionSatisfied(classicals)) {
      applyUnitary(cc.operation());
    }
    break;
  }
  default:
    applyUnitary(op);
    break;
  }
  ++pos;
  StepProfile profile;
  profile.nodesPerLevel = Package::sizeByLevel(current);
  nodes = std::accumulate(profile.nodesPerLevel.begin(),
                          profile.nodesPerLevel.end(), std::size_t{0});
  peak = std::max(peak, nodes);
  history.push_back(nodes);
  pkg.garbageCollect();
  const mem::TablePressure before =
      pressures.empty() ? mem::TablePressure{} : pressures.back();
  const mem::TablePressure now = pkg.tablePressure();
  pressures.push_back(now);
  profile.durationUs = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  profiles.push_back(profile);
  if (span.active()) {
    const std::size_t lookupDelta = now.cacheLookups - before.cacheLookups;
    const std::size_t hitDelta = now.cacheHits - before.cacheHits;
    const double hitRatioDelta =
        lookupDelta == 0 ? 0.
                         : static_cast<double>(hitDelta) /
                               static_cast<double>(lookupDelta);
    std::string opName = op.name(); // formats params — do it once
    span.arg("op", opName);
    span.arg("index", pos - 1);
    span.arg("nodes", nodes);
    span.arg("cacheHitRatioDelta", hitRatioDelta);
    span.arg("gcRuns", now.gcRuns);
    obs::StepMetrics metrics;
    metrics.index = pos - 1;
    metrics.op = std::move(opName);
    metrics.nodes = nodes;
    metrics.nodesPerLevel = profile.nodesPerLevel;
    metrics.cacheLookups = now.cacheLookups;
    metrics.cacheHits = now.cacheHits;
    metrics.cacheHitRatioDelta = hitRatioDelta;
    metrics.realEntries = now.realEntries;
    metrics.gcRuns = now.gcRuns;
    metrics.tsUs = obs::Registry::instance().nowUs();
    metrics.durUs = profile.durationUs;
    obs::Registry::instance().recordStep(std::move(metrics));
  }
  return true;
}

bool SimulationSession::stepBackward() {
  // snapshots can be empty with pos > 0 after a spill/restore cycle (the
  // history is not part of the spill image) — there is nothing to undo to
  if (atStart() || snapshots.empty()) {
    return false;
  }
  Snapshot snap = snapshots.back();
  snapshots.pop_back();
  pkg.decRef(current);
  current = snap.state; // snapshot already holds a reference
  nodes = snap.nodes;
  classicals = std::move(snap.classicals);
  --pos;
  if (!history.empty()) {
    history.pop_back();
  }
  if (!pressures.empty()) {
    pressures.pop_back();
  }
  if (!profiles.empty()) {
    profiles.pop_back();
  }
  return true;
}

std::size_t SimulationSession::runToEnd(const std::atomic<bool>* cancel) {
  std::size_t steps = 0;
  while (!atEnd()) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      break; // deadline/cancellation: stop at the gate boundary
    }
    const ir::Operation& op = qc.at(pos);
    stepForward();
    ++steps;
    if (isSpecial(op)) {
      // barriers, measurements, and resets act as breakpoints (Sec. IV-B)
      break;
    }
  }
  return steps;
}

std::size_t SimulationSession::runToStart() {
  std::size_t steps = 0;
  while (stepBackward()) {
    ++steps;
  }
  if (pos > 0) {
    // snapshot history was dropped by a spill/restore cycle: jump straight
    // to the initial state instead of replaying snapshots
    const vEdge zero = pkg.makeZeroState(qc.numQubits());
    pkg.incRef(zero);
    pkg.decRef(current);
    current = zero;
    nodes = Package::size(current);
    classicals.assign(qc.numClbits(), false);
    steps += pos;
    pos = 0;
    history.clear();
    pressures.clear();
    profiles.clear();
  }
  return steps;
}

void SimulationSession::restoreTo(const vEdge& state, std::size_t position,
                                  std::vector<bool> classicalBits,
                                  std::size_t peakNodes,
                                  std::uint64_t outcomeDraws) {
  if (position > qc.size()) {
    throw std::invalid_argument(
        "SimulationSession::restoreTo: position beyond circuit end");
  }
  // skip the draws chooseOutcome made, with the distribution it made them
  // with
  std::uniform_real_distribution<double> dist(0., 1.);
  for (; draws < outcomeDraws; ++draws) {
    (void)dist(rng);
  }
  pkg.incRef(state);
  pkg.decRef(current);
  current = state;
  for (const auto& snap : snapshots) {
    pkg.decRef(snap.state);
  }
  snapshots.clear();
  classicals = std::move(classicalBits);
  classicals.resize(qc.numClbits(), false);
  pos = position;
  nodes = Package::size(current);
  peak = std::max(peakNodes, nodes);
  history.clear();
  pressures.clear();
  profiles.clear();
}

// --- sampling ([16]) ------------------------------------------------------------

namespace {

bool isDynamic(const ir::QuantumComputation& qc) {
  bool seenMeasure = false;
  for (const auto& op : qc) {
    switch (op->type()) {
    case ir::OpType::Reset:
    case ir::OpType::ClassicControlled:
      return true;
    case ir::OpType::Measure:
      seenMeasure = true;
      break;
    case ir::OpType::Barrier:
      break;
    default:
      if (seenMeasure) {
        return true; // unitary after measurement: mid-circuit measurement
      }
      break;
    }
  }
  return false;
}

} // namespace

CircuitSampler::CircuitSampler(const ir::QuantumComputation& circuit,
                               Package& package)
    : qc(circuit), pkg(package), dynamic(isDynamic(qc)) {
  // Collect the (final) measurement map qubit -> classical bit.
  for (const auto& op : qc) {
    if (op->type() == ir::OpType::Measure) {
      const auto& m = static_cast<const ir::NonUnitaryOperation&>(*op);
      for (std::size_t k = 0; k < m.targets().size(); ++k) {
        measurements.emplace_back(m.targets()[k], m.classics()[k]);
      }
    }
  }
  if (dynamic) {
    return;
  }
  // Weak simulation: one strong pass now; sample() then draws repeatedly and
  // non-destructively from the final decision diagram.
  pkg.resize(qc.numQubits());
  // strip measurements (they are all final)
  ir::QuantumComputation stripped(qc.numQubits(), qc.numClbits(), qc.name());
  for (const auto& op : qc) {
    if (op->type() != ir::OpType::Measure) {
      stripped.emplaceBack(op->clone());
    }
  }
  finalState =
      bridge::simulate(stripped, pkg.makeZeroState(qc.numQubits()), pkg);
  pkg.incRef(finalState);
}

CircuitSampler::~CircuitSampler() {
  if (!dynamic) {
    pkg.decRef(finalState);
  }
}

SamplingResult CircuitSampler::sample(std::size_t shots, std::uint64_t seed) {
  SamplingResult result;
  result.shots = shots;
  std::mt19937_64 rng(seed);

  if (!dynamic) {
    for (std::size_t s = 0; s < shots; ++s) {
      const std::string qubitString = pkg.sample(finalState, rng);
      if (measurements.empty()) {
        ++result.counts[qubitString];
        continue;
      }
      const std::size_t n = qc.numQubits();
      std::string bits(qc.numClbits(), '0');
      for (const auto& [q, c] : measurements) {
        bits[qc.numClbits() - 1 - c] =
            qubitString[n - 1 - static_cast<std::size_t>(q)];
      }
      ++result.counts[bits];
    }
    return result;
  }

  // Dynamic circuit: execute shot by shot on the shared package —
  // constructing the unique/compute tables per shot would dominate.
  std::uniform_int_distribution<std::uint64_t> seeder;
  for (std::size_t s = 0; s < shots; ++s) {
    SimulationSession session(qc, pkg, seeder(rng));
    while (session.stepForward()) {
    }
    if (measurements.empty()) {
      std::mt19937_64 sampleRng(seeder(rng));
      ++result.counts[pkg.sample(session.state(), sampleRng)];
      continue;
    }
    std::string bits(qc.numClbits(), '0');
    for (std::size_t c = 0; c < qc.numClbits(); ++c) {
      if (session.classicalBits()[c]) {
        bits[qc.numClbits() - 1 - c] = '1';
      }
    }
    ++result.counts[bits];
  }
  return result;
}

SamplingResult sampleCircuit(const ir::QuantumComputation& qc,
                             std::size_t shots, std::uint64_t seed,
                             Package& pkg) {
  CircuitSampler sampler(qc, pkg);
  return sampler.sample(shots, seed);
}

SamplingResult sampleCircuit(const ir::QuantumComputation& qc,
                             std::size_t shots, std::uint64_t seed) {
  Package pkg(qc.numQubits());
  return sampleCircuit(qc, shots, seed, pkg);
}

} // namespace qdd::sim
