// Golden wire bytes of the session API: a fixed request script is replayed
// through Router::dispatch of an in-process Api, and every response body
// must match the bodies stored under tests/data/wire/ byte for byte. The
// only masked field is `lastStep.durationUs`, the one timing value these
// routes carry.
//
// To re-record the goldens (only when the wire format is meant to change):
//   QDD_RECORD_GOLDENS=1 build/tests/test_wire_goldens
//
// Below the goldens: the number primitive against the stream formatting it
// replaces, and the dd member writer against the exporter -> parse -> dump
// round trip it replaces, on many more states than the script reaches.

#include "qdd/bridge/DDBuilder.hpp"
#include "qdd/common/NumberFormat.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/service/Api.hpp"
#include "qdd/service/DdJson.hpp"
#include "qdd/service/Json.hpp"
#include "qdd/service/Metrics.hpp"
#include "qdd/service/Router.hpp"
#include "qdd/sim/SimulationSession.hpp"
#include "qdd/viz/Graph.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/TextDump.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace qdd;

struct Request {
  std::string method;
  std::string target;
  std::string body;
};

service::HttpRequest toHttpRequest(const Request& r) {
  service::HttpRequest req;
  req.method = r.method;
  req.target = r.target;
  const auto q = r.target.find('?');
  req.path = r.target.substr(0, q);
  if (q != std::string::npos) {
    std::istringstream query(r.target.substr(q + 1));
    std::string pair;
    while (std::getline(query, pair, '&')) {
      const auto eq = pair.find('=');
      req.query[pair.substr(0, eq)] =
          eq == std::string::npos ? "" : pair.substr(eq + 1);
    }
  }
  req.body = r.body;
  return req;
}

/// Replaces the value of every `"lastStep": {"durationUs": <number>` with
/// a fixed token: it is a wall-clock measurement.
std::string maskTimings(std::string body) {
  static const std::string key = "\"lastStep\": {\"durationUs\": ";
  for (std::size_t at = body.find(key); at != std::string::npos;
       at = body.find(key, at)) {
    const std::size_t start = at + key.size();
    std::size_t end = start;
    while (end < body.size() &&
           std::string("-+.0123456789eE").find(body[end]) !=
               std::string::npos) {
      ++end;
    }
    body.replace(start, end - start, "MASKED");
    at = start;
  }
  return body;
}

/// The steps an interactive user takes on one simulation session `id`.
std::vector<Request> simulationScript(const std::string& id,
                                      const std::string& spec) {
  const std::string s = "/v1/sessions/" + id;
  return {
      {"POST", "/v1/sessions", spec},
      {"POST", s + "/step", "{}"},
      {"POST", s + "/step", R"({"count": 3})"},
      {"GET", s, ""},
      {"POST", s + "/back", "{}"},
      {"POST", s + "/run", "{}"},
      {"GET", s + "/dd?fmt=json", ""},
      {"GET", s + "/dd?fmt=json&compact=1", ""},
      {"GET", s + "/dd?fmt=dot", ""},
      {"GET", s + "/dd?fmt=svg", ""},
      {"POST", s + "/back", R"({"count": 2})"},
      {"POST", s + "/reset", "{}"},
  };
}

/// A mid-circuit measurement, a reset and arbitrary rotation angles; the
/// session seed fixes the measurement outcomes.
const char* const MEASURE_RESET_QASM =
    "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\n"
    "creg c[3];\\nh q[0];\\ncx q[0],q[1];\\nry(0.3) q[2];\\n"
    "measure q[0] -> c[0];\\nh q[0];\\nreset q[1];\\nrz(1.1) q[2];\\n"
    "cx q[2],q[1];\\nu3(0.7,0.2,-1.3) q[1];\\nt q[0];\\n"
    "measure q[2] -> c[2];\\nry(2.5) q[2];\\n";

struct Script {
  const char* name; ///< golden file under tests/data/wire/
  std::vector<Request> requests;
};

std::vector<Script> scripts() {
  std::vector<Script> out;
  out.push_back({"bell", simulationScript("s1", R"({"builder": {"name": "bell"}})")});
  out.push_back({"ghz8", simulationScript(
                             "s2", R"({"builder": {"name": "ghz", "qubits": 8}})")});
  out.push_back({"qft8", simulationScript(
                             "s3", R"({"builder": {"name": "qft", "qubits": 8}})")});
  out.push_back(
      {"grover8",
       simulationScript("s4", R"({"builder": {"name": "grover", "qubits": 8}})")});
  out.push_back(
      {"wstate6", simulationScript(
                      "s5", R"({"builder": {"name": "wstate", "qubits": 6}})")});
  out.push_back(
      {"random8",
       simulationScript(
           "s6",
           R"({"builder": {"name": "random", "qubits": 8, "depth": 12, "seed": 5}})")});
  out.push_back({"measure_reset",
                 simulationScript("s7", std::string(R"({"seed": 11, "qasm": ")") +
                                            MEASURE_RESET_QASM + "\"}")});

  const std::string v = "/v1/sessions/s8";
  out.push_back(
      {"verify_qft3",
       {
           {"POST", "/v1/sessions",
            R"({"kind": "verification",
                "left": {"builder": {"name": "qft", "qubits": 3}},
                "right": {"builder": {"name": "qft", "qubits": 3},
                          "decompose": true}})"},
           {"POST", v + "/step", R"({"side": "left"})"},
           {"POST", v + "/step", R"({"side": "right", "count": 3})"},
           {"GET", v, ""},
           {"GET", v + "/dd?fmt=json", ""},
           {"GET", v + "/dd?fmt=json&compact=1", ""},
           {"GET", v + "/dd?fmt=dot", ""},
           {"GET", v + "/dd?fmt=svg", ""},
           {"POST", v + "/run", "{}"},
           {"POST", v + "/back", "{}"},
           {"POST", v + "/back", R"({"count": 2})"},
           {"POST", v + "/reset", "{}"},
       }});

  out.push_back({"service",
                 {
                     {"GET", "/v1/sessions", ""},
                     {"GET", "/healthz", ""},
                     {"GET", "/v1/sessions/s99", ""},
                     {"POST", "/v1/sessions", "{not json"},
                     {"POST", v + "/step", R"({"side": "middle"})"},
                     {"GET", "/v1/sessions/s1/dd?fmt=png", ""},
                     {"DELETE", "/v1/sessions/s1", ""},
                 }});
  return out;
}

std::string goldenPath(const char* name) {
  return std::string(QDD_WIRE_GOLDENS_DIR) + "/" + name + ".txt";
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Where two transcripts first differ, with the request it belongs to.
std::string firstDifference(const std::string& want, const std::string& got) {
  std::size_t at = 0;
  while (at < want.size() && at < got.size() && want[at] == got[at]) {
    ++at;
  }
  const std::size_t header = got.rfind("=== ", at);
  const std::string request =
      header == std::string::npos
          ? std::string("(start)")
          : got.substr(header, got.find('\n', header) - header);
  const std::size_t from = at < 60 ? 0 : at - 60;
  return "first difference at byte " + std::to_string(at) + " in " + request +
         "\n  golden: ..." + want.substr(from, 120) + "\n  actual: ..." +
         got.substr(from, 120);
}

TEST(WireGoldens, ResponseBodiesMatchTheRecordedBytes) {
  service::ServiceMetrics metrics;
  service::Api api(service::ApiOptions{}, metrics);
  service::Router router;
  api.install(router);
  const bool record = std::getenv("QDD_RECORD_GOLDENS") != nullptr;

  for (const Script& script : scripts()) {
    std::string transcript;
    for (const Request& r : script.requests) {
      const service::HttpResponse response =
          router.dispatch(toHttpRequest(r)).response;
      const std::string body = maskTimings(response.body);
      transcript += "=== " + r.method + " " + r.target + "\n";
      transcript += "status " + std::to_string(response.status) + " " +
                    response.contentType + " bytes " +
                    std::to_string(body.size()) + "\n";
      transcript += body + "\n";
    }
    const std::string path = goldenPath(script.name);
    if (record) {
      std::ofstream(path, std::ios::binary) << transcript;
      continue;
    }
    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty()) << "missing golden " << path;
    EXPECT_TRUE(golden == transcript)
        << script.name << ": " << firstDifference(golden, transcript);
  }
}

// --- the number primitive ----------------------------------------------------

std::string streamFormat(double v, int precision, bool fixed = false) {
  std::ostringstream ss;
  if (fixed) {
    ss << std::fixed;
  }
  ss << std::setprecision(precision) << v;
  return ss.str();
}

/// Seeded doubles over every range the writers meet, plus the edge cases.
std::vector<double> formatterInputs() {
  std::vector<double> values{0.,
                             -0.,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             9007199254740992.,  // 2^53
                             9007199254740991.,  // 2^53 - 1
                             9999999999.5,       // rounds up to 1e10
                             0.000099999999995,  // rounds up to 1e-4
                             999.5,
                             0.5,
                             1e10,
                             1e12,
                             SQRT2_2,
                             PI};
  // integers on both sides of each power of ten, where "%.Pg" turns to
  // exponent form
  for (double power = 1.; power <= 1e17; power *= 10.) {
    for (const double v : {power - 1., power, power + 1.}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (int k = -1000; k <= 1000; ++k) {
    values.push_back(k);
  }
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(1., 10.);
  std::uniform_int_distribution<int> exponent(-300, 300);
  std::uniform_real_distribution<double> small(-4., 4.);
  std::uniform_int_distribution<std::uint64_t> integer(0, 1ULL << 53U);
  std::uniform_int_distribution<std::uint64_t> subnormalBits(
      1, (1ULL << 52U) - 1);
  for (int k = 0; k < 4000; ++k) {
    const double sign = (k % 2 == 0) ? 1. : -1.;
    values.push_back(sign * unit(rng) * std::pow(10., exponent(rng)));
    values.push_back(small(rng));
    values.push_back(sign * static_cast<double>(integer(rng)));
    std::uint64_t bits = subnormalBits(rng);
    double subnormal = 0.;
    std::memcpy(&subnormal, &bits, sizeof(bits));
    values.push_back(sign * subnormal);
  }
  return values;
}

TEST(WireFormat, GeneralFormatMatchesTheStream) {
  const std::vector<double> values = formatterInputs();
  for (const int precision : {0, 1, 3, 4, 6, 9, 10, 12, 15, 17}) {
    for (const double v : values) {
      std::string out = "x"; // appends behind what the buffer holds
      appendGeneral(out, v, precision);
      ASSERT_EQ(out.substr(1), streamFormat(v, precision))
          << "precision " << precision << ", value " << std::hexfloat << v;
      ASSERT_EQ(out[0], 'x');
    }
  }
  // the fixed format of the SVG coordinates
  for (const double v : values) {
    std::string out = "x";
    appendFixed(out, v, 1);
    ASSERT_EQ(out.substr(1), streamFormat(v, 1, true))
        << "fixed, value " << std::hexfloat << v;
    ASSERT_EQ(out[0], 'x');
  }
}

TEST(WireFormat, NonFiniteJsonNumbersAreNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int precision : {3, 4, 10, 12}) {
    for (const double v : {nan, -nan, inf, -inf}) {
      std::string out = "[";
      json::appendNumber(out, v, precision);
      EXPECT_EQ(out, "[null");
    }
  }
  EXPECT_EQ(service::json::Value::number(-inf).dump(), "null");
}

// --- the dd member writer ------------------------------------------------------

/// What the service sent before ddJson existed.
std::string exporterRoundTrip(const viz::Graph& g) {
  return service::json::Value::parse(viz::JsonExporter(10, true).toJson(g))
      .dump();
}

TEST(WireFormat, DdJsonEqualsTheExporterRoundTrip) {
  std::size_t graphs = 0;
  const auto check = [&graphs](const viz::Graph& g) {
    ++graphs;
    ASSERT_EQ(service::ddJson(g), exporterRoundTrip(g));
  };

  // every intermediate state of these circuits
  const std::vector<ir::QuantumComputation> circuits{
      ir::builders::ghz(9),          ir::builders::qft(7),
      ir::builders::grover(6, 5, 0), ir::builders::wState(7),
      ir::builders::phaseEstimation(5, 11),
      ir::builders::randomCliffordT(8, 10, 3),
      ir::builders::randomCliffordT(6, 30, 4)};
  for (const auto& qc : circuits) {
    Package pkg(qc.numQubits());
    sim::SimulationSession session(qc, pkg, 1);
    check(viz::buildGraph(session.state()));
    while (session.stepForward()) {
      check(viz::buildGraph(session.state()));
    }
  }

  // gate and functionality matrices, with and without their span
  const ir::QuantumComputation qft = ir::builders::qft(4);
  Package pkg(qft.numQubits());
  for (const auto& op : qft) {
    const mEdge gate = bridge::getDD(*op, qft.numQubits(), pkg);
    check(viz::buildGraph(gate));
    check(viz::buildGraph(gate, qft.numQubits()));
  }
  const mEdge functionality = bridge::buildFunctionality(qft, pkg);
  check(viz::buildGraph(functionality));
  check(viz::buildGraph(functionality, qft.numQubits() + 2));

  // the degenerate documents: a zero vector, a zero matrix, and w * I
  viz::Graph zero;
  check(zero);
  zero.isMatrix = true;
  zero.radix = 4;
  check(zero);
  viz::Graph identity = zero;
  identity.rootWeight = ComplexValue{0., -1.};
  identity.span = 3;
  identity.rootSkippedLevels = 3;
  check(identity);
  identity.span = 0;
  identity.rootSkippedLevels = 0;
  check(identity);

  // weights outside what a normalized DD holds: tiny, negative zero, close
  // to a rounding boundary, and 0 next to -0 (which print differently)
  viz::Graph odd = viz::buildGraph(functionality);
  ASSERT_GE(odd.edges.size(), 8U);
  const std::vector<ComplexValue> weights{
      {1e-7, -2.5e-300}, {-0., 0.},        {4., -3.99999999995},
      {9999999.7, 0.5},  {1., 0.},         {1., -0.},
      {1., 0.},          {-0.00001, 1e-5}};
  for (std::size_t k = 0; k < weights.size(); ++k) {
    odd.edges[k].zeroStub = false;
    odd.edges[k].weight = weights[k];
  }
  odd.rootWeight = weights.front();
  check(odd);
  EXPECT_GT(graphs, 150U);
}

// --- the Dirac string ----------------------------------------------------------

/// toDirac as it was written before the single-string writer: the dense
/// vector, one stream, ComplexValue::toString through a stream of its own.
std::string streamDirac(Package& pkg, const vEdge& state, int precision,
                        double cutoff) {
  if (state.isTerminal()) {
    return "0";
  }
  const auto n = static_cast<std::size_t>(state.p->v) + 1;
  const auto vec = pkg.getVector(state);
  const auto complexText = [precision](double re, double im) {
    std::ostringstream ss;
    ss << std::setprecision(precision);
    if (im == 0.) {
      ss << re;
    } else if (re == 0.) {
      ss << im << "i";
    } else {
      ss << re << (im < 0. ? "-" : "+") << std::abs(im) << "i";
    }
    return ss.str();
  };
  std::ostringstream ss;
  bool first = true;
  for (std::size_t idx = 0; idx < vec.size(); ++idx) {
    const std::complex<double> amp = vec[idx];
    if (std::abs(amp) <= cutoff) {
      continue;
    }
    ss << (first ? "" : " + ");
    first = false;
    if (amp.imag() == 0. && amp.real() == 1.) {
      // amplitude 1: omitted
    } else if (amp.imag() != 0. && amp.real() != 0.) {
      ss << "(" << complexText(amp.real(), amp.imag()) << ")";
    } else {
      ss << complexText(amp.real(), amp.imag());
    }
    ss << "|";
    for (std::size_t k = n; k-- > 0;) {
      ss << ((idx >> k) & 1ULL);
    }
    ss << ">";
  }
  return first ? "0" : ss.str();
}

TEST(WireFormat, DiracMatchesTheDenseStreamRendering) {
  const std::vector<ir::QuantumComputation> circuits{
      ir::builders::ghz(9),          ir::builders::qft(6),
      ir::builders::grover(7, 3, 0), ir::builders::wState(6),
      ir::builders::phaseEstimation(5, 11),
      ir::builders::randomCliffordT(7, 12, 8)};
  std::size_t states = 0;
  for (const auto& qc : circuits) {
    Package pkg(qc.numQubits());
    sim::SimulationSession session(qc, pkg, 1);
    do {
      ++states;
      for (const int precision : {2, 4, 10}) {
        for (const double cutoff : {1e-9, 0.1}) {
          ASSERT_EQ(viz::toDirac(pkg, session.state(), precision, cutoff),
                    streamDirac(pkg, session.state(), precision, cutoff))
              << qc.name() << " at operation " << session.position();
        }
      }
    } while (session.stepForward());
  }
  EXPECT_GT(states, 100U);
}

} // namespace
