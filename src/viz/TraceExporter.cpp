#include "qdd/viz/TraceExporter.hpp"

#include "qdd/common/Json.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/TextDump.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qdd::viz {

namespace {

/// Indents every line of a JSON fragment for embedding.
std::string indent(const std::string& text, const std::string& pad) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!first) {
      out << "\n";
    }
    out << pad << line;
    first = false;
  }
  return out.str();
}

} // namespace

std::string exportSimulationTrace(const ir::QuantumComputation& qc,
                                  Package& pkg, TraceOptions options) {
  sim::SimulationSession session(qc, pkg, options.seed);
  const JsonExporter diagrams(options.precision);

  std::ostringstream ss;
  ss << "{\n";
  ss << "  \"circuit\": \"" << json::escape(qc.name()) << "\",\n";
  ss << "  \"qubits\": " << qc.numQubits() << ",\n";
  ss << "  \"clbits\": " << qc.numClbits() << ",\n";
  ss << "  \"operations\": " << qc.size() << ",\n";
  ss << "  \"steps\": [\n";

  const auto emitStep = [&](std::size_t index, const std::string& opName,
                            bool last) {
    ss << "    {\n";
    ss << "      \"index\": " << index << ",\n";
    ss << "      \"operation\": \"" << json::escape(opName) << "\",\n";
    ss << "      \"state\": \""
       << json::escape(toDirac(pkg, session.state(), 4)) << "\",\n";
    // Applied steps (index >= 1) carry the table-pressure snapshot and the
    // step profile (wall time, active nodes per level) the session recorded
    // right after the operation.
    if (index > 0 && index <= session.pressureHistory().size()) {
      const auto& p = session.pressureHistory()[index - 1];
      ss << "      \"tablePressure\": {\"vectorNodes\": " << p.vectorNodes
         << ", \"matrixNodes\": " << p.matrixNodes
         << ", \"realEntries\": " << p.realEntries
         << ", \"cacheLookups\": " << p.cacheLookups
         << ", \"cacheHits\": " << p.cacheHits << ", \"gcRuns\": " << p.gcRuns
         << "},\n";
    }
    if (index > 0 && index <= session.stepProfiles().size()) {
      const auto& profile = session.stepProfiles()[index - 1];
      char durBuf[32];
      std::snprintf(durBuf, sizeof(durBuf), "%.1f", profile.durationUs);
      ss << "      \"durationUs\": " << durBuf << ",\n";
      ss << "      \"nodesPerLevel\": [";
      for (std::size_t k = 0; k < profile.nodesPerLevel.size(); ++k) {
        ss << (k > 0 ? ", " : "") << profile.nodesPerLevel[k];
      }
      ss << "],\n";
    }
    ss << "      \"nodes\": " << session.currentNodes();
    if (options.includeDiagrams) {
      ss << ",\n      \"dd\":\n"
         << indent(diagrams.toJson(buildGraph(session.state())), "      ");
    } else {
      ss << "\n";
    }
    ss << "    }" << (last ? "" : ",") << "\n";
  };

  emitStep(0, "(initial state)", qc.size() == 0);
  std::size_t index = 1;
  while (!session.atEnd()) {
    const std::string opName = session.nextOperation()->name();
    session.stepForward();
    emitStep(index, opName, index == qc.size());
    ++index;
  }

  ss << "  ],\n";
  ss << "  \"peakNodes\": " << session.peakNodes() << ",\n";
  ss << "  \"classicalBits\": \"";
  for (std::size_t c = qc.numClbits(); c-- > 0;) {
    ss << (session.classicalBits()[c] ? '1' : '0');
  }
  ss << "\",\n";
  ss << "  \"stats\":\n" << indent(pkg.statistics().toJson(), "  ") << "\n";
  ss << "}\n";
  return ss.str();
}

void writeSimulationTrace(const ir::QuantumComputation& qc, Package& pkg,
                          const std::string& path, TraceOptions options) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open file for writing: " + path);
  }
  out << exportSimulationTrace(qc, pkg, options);
}

} // namespace qdd::viz
