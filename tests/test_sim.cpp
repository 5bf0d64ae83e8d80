#include "qdd/ir/Builders.hpp"
#include "qdd/parser/qasm/Parser.hpp"
#include "qdd/sim/SimulationSession.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qdd::sim {
namespace {

constexpr double EPS = 1e-10;

TEST(SimSession, StepThroughBellCircuit) {
  // Paper Ex. 13 / Fig. 8(a)-(b): stepping through the circuit of Fig. 1(c).
  Package pkg(2);
  SimulationSession session(ir::builders::bell(), pkg);
  // initial state |00>
  EXPECT_TRUE(session.atStart());
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 0).re, 1., EPS);
  // after H
  ASSERT_TRUE(session.stepForward());
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 0).re, SQRT2_2, EPS);
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 2).re, SQRT2_2, EPS);
  // after CNOT: Bell state
  ASSERT_TRUE(session.stepForward());
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 0).re, SQRT2_2, EPS);
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 3).re, SQRT2_2, EPS);
  EXPECT_TRUE(session.atEnd());
  EXPECT_FALSE(session.stepForward());
}

TEST(SimSession, StepBackwardRestoresState) {
  Package pkg(2);
  SimulationSession session(ir::builders::bell(), pkg);
  session.stepForward();
  session.stepForward();
  ASSERT_TRUE(session.stepBackward());
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 2).re, SQRT2_2, EPS);
  ASSERT_TRUE(session.stepBackward());
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 0).re, 1., EPS);
  EXPECT_TRUE(session.atStart());
  EXPECT_FALSE(session.stepBackward());
}

TEST(SimSession, MeasurementWithChooserCollapsesEntangledState) {
  // Paper Ex. 13 / Fig. 8(c)-(d): measuring q0 of the Bell state as |1>
  // determines q1 -> final state |11>.
  auto qc = ir::builders::bell();
  qc.addClassicalRegister(2, "c");
  qc.measure(0, 0);
  Package pkg(2);
  SimulationSession session(qc, pkg);
  double seenP0 = -1.;
  session.setOutcomeChooser([&](Qubit q, double p0, double p1) {
    EXPECT_EQ(q, 0);
    seenP0 = p0;
    EXPECT_NEAR(p1, 0.5, EPS);
    return 1; // the user clicks |1>
  });
  while (session.stepForward()) {
  }
  EXPECT_NEAR(seenP0, 0.5, EPS); // the dialog showed 50/50
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 3).mag(), 1., EPS);
  EXPECT_TRUE(session.classicalBits()[0]);
}

TEST(SimSession, DeterministicMeasurementSkipsChooser) {
  ir::QuantumComputation qc(1, 1);
  qc.x(0);
  qc.measure(0, 0);
  Package pkg(1);
  SimulationSession session(qc, pkg);
  bool chooserCalled = false;
  session.setOutcomeChooser([&](Qubit, double, double) {
    chooserCalled = true;
    return 0;
  });
  while (session.stepForward()) {
  }
  EXPECT_FALSE(chooserCalled); // |1> with certainty: no pop-up
  EXPECT_TRUE(session.classicalBits()[0]);
}

TEST(SimSession, StepBackwardAcrossMeasurement) {
  // Measurements are irreversible on a quantum computer, but the tool can
  // still step back because it snapshots the state.
  auto qc = ir::builders::bell();
  qc.addClassicalRegister(1, "c");
  qc.measure(0, 0);
  Package pkg(2);
  SimulationSession session(qc, pkg);
  session.setOutcomeChooser([](Qubit, double, double) { return 1; });
  while (session.stepForward()) {
  }
  ASSERT_TRUE(session.stepBackward());
  // back to the Bell state
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 0).re, SQRT2_2, EPS);
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 3).re, SQRT2_2, EPS);
  EXPECT_FALSE(session.classicalBits()[0]);
}

TEST(SimSession, RunToEndStopsAtBarrier) {
  ir::QuantumComputation qc(2);
  qc.h(0);
  qc.barrier();
  qc.x(1);
  Package pkg(2);
  SimulationSession session(qc, pkg);
  session.runToEnd();
  EXPECT_EQ(session.position(), 2U); // H + barrier consumed, stopped
  session.runToEnd();
  EXPECT_TRUE(session.atEnd());
}

TEST(SimSession, RunToEndStopsAfterMeasurement) {
  ir::QuantumComputation qc(2, 2);
  qc.h(0);
  qc.measure(0, 0);
  qc.x(1);
  Package pkg(2);
  SimulationSession session(qc, pkg);
  session.setOutcomeChooser([](Qubit, double, double) { return 0; });
  session.runToEnd();
  EXPECT_EQ(session.position(), 2U);
  session.runToEnd();
  EXPECT_TRUE(session.atEnd());
}

TEST(SimSession, ResetCollapsesAndRewrites) {
  // Paper Sec. IV-B: reset discards the measured branch and reinstalls the
  // survivor as the |0> branch.
  ir::QuantumComputation qc(2);
  qc.x(0);
  qc.x(1);
  qc.reset(0);
  Package pkg(2);
  SimulationSession session(qc, pkg);
  session.setOutcomeChooser([](Qubit, double, double) { return 1; });
  while (session.stepForward()) {
  }
  // |11> -> reset q0 -> |10>
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 2).mag(), 1., EPS);
}

TEST(SimSession, ClassicallyControlledOperation) {
  // teleport-style: measure, then conditionally flip
  const auto qc = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
x q[0];
measure q[0] -> c[0];
if (c == 1) x q[1];
)");
  Package pkg(2);
  SimulationSession session(qc, pkg);
  while (session.stepForward()) {
  }
  // q0 measured as 1 (deterministic) -> q1 flipped -> |11>
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 3).mag(), 1., EPS);
}

TEST(SimSession, ClassicallyControlledNotTaken) {
  const auto qc = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
measure q[0] -> c[0];
if (c == 1) x q[1];
)");
  Package pkg(2);
  SimulationSession session(qc, pkg);
  while (session.stepForward()) {
  }
  EXPECT_NEAR(pkg.getValueByIndex(session.state(), 0).mag(), 1., EPS);
}

TEST(SimSession, NodeHistoryTracksGrowth) {
  Package pkg(4);
  SimulationSession session(ir::builders::ghz(4), pkg);
  while (session.stepForward()) {
  }
  EXPECT_EQ(session.nodeHistory().size(), 4U);
  EXPECT_EQ(session.nodeHistory().back(), 7U); // 2n-1 for GHZ
  EXPECT_GE(session.peakNodes(), 7U);
}

TEST(SimSession, NodeCountFollowsEveryStateChange) {
  // currentNodes() is counted when the state changes, not on every read; it
  // must equal a fresh walk of the state after every kind of move, across a
  // mid-circuit measurement and a reset
  const auto qc = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[1];
h q[0];
cx q[0], q[1];
h q[2];
measure q[0] -> c[0];
cx q[2], q[1];
reset q[1];
h q[1];
t q[2];
cx q[2], q[0];
)");
  Package pkg(3);
  const auto check = [](const SimulationSession& s, const char* move) {
    EXPECT_EQ(s.currentNodes(), Package::size(s.state()))
        << "after " << move << " at position " << s.position();
  };

  SimulationSession session(qc, pkg, 7);
  check(session, "construction");
  while (session.stepForward()) {
    check(session, "forward");
  }
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(session.stepBackward());
    check(session, "back");
  }
  session.runToStart();
  check(session, "runToStart");
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(session.stepForward());
    check(session, "forward");
  }

  // past the measurement, where q2 and q1 are entangled (4 nodes, the zero
  // state has 3): restore into a fresh session, then move on from there
  // across the reset, back to the restored state, and to the start
  ASSERT_NE(session.currentNodes(), 3U);
  SimulationSession restored(qc, pkg, 7);
  restored.restoreTo(session.state(), session.position(),
                     session.classicalBits(), session.peakNodes(),
                     session.outcomeDraws());
  check(restored, "restoreTo");
  while (restored.stepForward()) {
    check(restored, "forward");
  }
  while (restored.stepBackward()) {
    check(restored, "back");
  }
  EXPECT_EQ(restored.position(), 5U);
  restored.runToStart();
  check(restored, "runToStart");
  EXPECT_EQ(restored.position(), 0U);
}

TEST(SimSampling, BellDistribution) {
  auto qc = ir::builders::bell();
  qc.measureAll();
  const SamplingResult result = sampleCircuit(qc, 4000, 123);
  EXPECT_EQ(result.shots, 4000U);
  ASSERT_EQ(result.counts.size(), 2U);
  EXPECT_TRUE(result.counts.contains("00"));
  EXPECT_TRUE(result.counts.contains("11"));
  EXPECT_GT(result.counts.at("00"), 1600U);
  EXPECT_GT(result.counts.at("11"), 1600U);
}

TEST(SimSampling, NoMeasurementsSamplesAllQubits) {
  const auto qc = ir::builders::ghz(3);
  const SamplingResult result = sampleCircuit(qc, 500, 7);
  for (const auto& [bits, count] : result.counts) {
    EXPECT_TRUE(bits == "000" || bits == "111") << bits;
    EXPECT_GT(count, 0U);
  }
}

TEST(SimSampling, PartialMeasurementMapsToClassicalBits) {
  const auto qc = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
x q[1];
measure q[1] -> c[0];
)");
  const SamplingResult result = sampleCircuit(qc, 100, 3);
  ASSERT_EQ(result.counts.size(), 1U);
  EXPECT_EQ(result.counts.begin()->first, "1");
}

TEST(SimSampling, DynamicCircuitFallback) {
  // mid-circuit measurement + classical control: per-shot execution
  const auto qc = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
measure q[0] -> c[0];
if (c == 1) x q[1];
measure q[1] -> c[1];
)");
  const SamplingResult result = sampleCircuit(qc, 400, 11);
  // outcomes are perfectly correlated: c = 00 or c = 11
  std::size_t total = 0;
  for (const auto& [bits, count] : result.counts) {
    EXPECT_TRUE(bits == "00" || bits == "11") << bits;
    total += count;
  }
  EXPECT_EQ(total, 400U);
  EXPECT_EQ(result.counts.size(), 2U);
}

TEST(SimSampling, ResetReusesQubit) {
  const auto qc = qasm::parse(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
creg c[1];
x q[0];
reset q[0];
measure q[0] -> c[0];
)");
  const SamplingResult result = sampleCircuit(qc, 50, 5);
  ASSERT_EQ(result.counts.size(), 1U);
  EXPECT_EQ(result.counts.begin()->first, "0");
}

} // namespace
} // namespace qdd::sim
