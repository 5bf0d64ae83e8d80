// sessbench-load: the benchmark's load generator and oracle.
//
//   sessbench-load --workload interactive|analysis|fleet --seed N
//                  --seconds S --tool <qdd-tool> --workdir <dir> [--script F]
//
// Starts `qdd-tool serve` as a child process, drives it from this single
// thread over one keep-alive connection (a closed loop: each request waits
// for the previous answer), checks every answer against the oracle, and
// prints one JSON line with the end-to-end metrics, the server-side layer
// readings from /proc, and the operations attempted and failed. With
// --script it also writes every request it sent, in order, for the
// in-process replay (sessbench-replay).
//
// This program links nothing from qdd: neither its HTTP client nor its JSON
// code, so a change there cannot move the measuring side.

#include "circuits.hpp"
#include "fleet.hpp"
#include "http.hpp"
#include "minijson.hpp"
#include "oracle.hpp"
#include "procfs.hpp"
#include "stats.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sessbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double threadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.;
  std::string tool;
  std::string workdir;
  std::string script;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--tool") {
      a.tool = value;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--script") {
      a.script = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.tool.empty() || a.workdir.empty()) {
    throw std::runtime_error(
        "usage: sessbench-load --workload W --seed N --seconds S --tool T "
        "--workdir D [--script F]");
  }
  return a;
}

// --- the server child ---------------------------------------------------------

/// `qdd-tool serve` as a child process. It dies with this process
/// (PR_SET_PDEATHSIG) and is stopped and reaped by the destructor on every
/// other exit path.
class ServerProcess {
public:
  ServerProcess(const std::string& tool, const std::vector<std::string>& flags,
                const std::string& logPath) {
    int out[2];
    if (pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    const pid_t parent = getpid();
    pid = fork();
    if (pid < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) {
        _exit(127);
      }
      dup2(out[1], STDOUT_FILENO);
      const int log = open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        dup2(log, STDERR_FILENO);
      }
      std::vector<std::string> argv{tool, "serve"};
      argv.insert(argv.end(), flags.begin(), flags.end());
      std::vector<char*> cargv;
      for (auto& s : argv) {
        cargv.push_back(s.data());
      }
      cargv.push_back(nullptr);
      execv(tool.c_str(), cargv.data());
      _exit(127);
    }
    close(out[1]);
    stdoutFd = out[0];
    std::string line;
    char c = 0;
    while (read(stdoutFd, &c, 1) == 1) {
      if (c != '\n') {
        line += c;
        continue;
      }
      const auto at = line.find("SERVE_READY port=");
      if (at != std::string::npos) {
        port = static_cast<std::uint16_t>(std::stoi(line.substr(at + 17)));
        return;
      }
      line.clear();
    }
    stop();
    throw std::runtime_error("server exited before SERVE_READY (see " +
                             logPath + ")");
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM (graceful drain), SIGKILL after 10 s; always reaps the child.
  void stop() {
    if (pid > 0) {
      kill(pid, SIGTERM);
      int status = 0;
      const auto t0 = Clock::now();
      while (waitpid(pid, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 10.) {
          kill(pid, SIGKILL);
          waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid = -1;
    }
    if (stdoutFd >= 0) {
      close(stdoutFd);
      stdoutFd = -1;
    }
  }

  pid_t pid = -1;
  std::uint16_t port = 0;

private:
  int stdoutFd = -1;
};

// --- run-wide accounting ------------------------------------------------------

enum class Kind : std::uint8_t {
  Timed,  ///< the workload's timed requests (op_ms)
  Create, ///< POST /v1/sessions (open_ms)
  Other,  ///< untimed workload requests (exports, deletes, set-up steps)
  Probe,  ///< /healthz reads that check a property; not an operation
};

struct Run {
  HttpConnection* http = nullptr;
  std::ofstream script;
  bool timing = false; ///< inside the timed phase
  std::vector<double> opMs;
  std::vector<double> openMs;
  double timedBytes = 0.;
  std::size_t requests = 0; ///< every request sent during the timed phase
  double clientCpuMs = 0.;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t knownFaults[2] = {0, 0};
  bool correct = true;
  std::vector<std::string> errors;
  double worstInfidelity = 0.;
  double worstNormError = 0.;
  std::size_t rounds = 0;

  HttpResult send(Kind kind, const std::string& method,
                  const std::string& target, const std::string& body = {}) {
    const double cpu0 = threadCpuMs();
    HttpResult r = http->request(method, target, body);
    const double cpu = threadCpuMs() - cpu0;
    if (script.is_open()) {
      const char tag = !timing ? 'p'
                       : kind == Kind::Timed ? 't'
                       : kind == Kind::Probe ? 'h'
                                             : 'o';
      script << tag << '\t' << method << '\t' << target << '\t'
             << jsonNum(r.ms) << '\t' << body << '\n';
    }
    if (!timing) {
      return r;
    }
    ++requests;
    clientCpuMs += cpu;
    if (kind != Kind::Probe) {
      ++attempted;
    }
    if (kind == Kind::Timed) {
      opMs.push_back(r.ms);
      timedBytes += static_cast<double>(r.wireBytes);
    } else if (kind == Kind::Create) {
      openMs.push_back(r.ms);
    }
    return r;
  }

  /// A check failed that no known fault explains.
  void unexpected(const std::string& why) {
    if (timing) {
      ++failed;
    }
    correct = false;
    if (errors.size() < 8) {
      errors.push_back(why);
    }
  }
  /// A timed request hit one of the faults this benchmark keeps and counts.
  void knownFault() { ++failed; }
};

// --- checking session documents ------------------------------------------------

/// The oracle's view of one simulation session: its circuit and the state
/// after each position reached so far.
struct SimTracker {
  explicit SimTracker(const Circuit& c) : circuit(c), states{basisState(c.n)} {}
  Circuit circuit;
  std::vector<State> states;
  std::size_t pos = 0;
};

/// Checks a served simulation document against the oracle: the position is
/// `expectPos`; a forward step's state is the gate applied to the previous
/// oracle state, or after a measure or reset the normalized projection onto
/// an outcome of non-zero probability (the oracle continues from it); any
/// other position holds the state recorded there. Returns "" when correct.
std::string checkSimDoc(Run& run, const JVal& doc, SimTracker& t,
                        std::size_t expectPos) {
  const auto pos = static_cast<std::size_t>(doc.number("position"));
  if (pos != expectPos) {
    return "position " + std::to_string(pos) + ", expected " +
           std::to_string(expectPos);
  }
  const JVal* dd = doc.get("dd");
  if (dd == nullptr) {
    return "document without dd";
  }
  const State served = expandVectorDd(*dd, t.circuit.n);
  const double tol = servedTolerance(t.circuit.n, pos);
  if (pos == t.pos + 1) {
    const Gate& g = t.circuit.gates[t.pos];
    State next;
    if (g.name == "measure" || g.name == "reset") {
      const State& before = t.states[t.pos];
      double best = -1.;
      for (int outcome = 0; outcome < 2; ++outcome) {
        if (probability(before, g.q[0], outcome) < 1e-9) {
          continue;
        }
        State cand = project(before, g.q[0], outcome, g.name == "reset");
        const double f = fidelity(served, cand);
        if (f > best) {
          best = f;
          next = std::move(cand);
        }
      }
    } else {
      next = t.states[t.pos];
      applyGate(next, g);
    }
    t.states.resize(pos + 1);
    t.states[pos] = std::move(next);
  } else if (pos >= t.states.size()) {
    return "position " + std::to_string(pos) + " was never reached";
  }
  const Comparison cmp = compareStates(served, t.states[pos], tol);
  run.worstInfidelity = std::max(run.worstInfidelity, cmp.infidelity);
  run.worstNormError = std::max(run.worstNormError, cmp.normError);
  t.pos = pos;
  if (!cmp.ok) {
    return "state at position " + std::to_string(pos) +
           " differs from the oracle (infidelity " + jsonNum(cmp.infidelity) +
           ", norm error " + jsonNum(cmp.normError) + ")";
  }
  return {};
}

std::string createBody(const Circuit& c, std::uint64_t seed) {
  return "{\"qasm\": \"" + jsonEscape(toQasm(c)) +
         "\", \"seed\": " + std::to_string(seed) + "}";
}

std::string createPairBody(const Pair& p) {
  return "{\"kind\": \"verification\", \"left\": {\"qasm\": \"" +
         jsonEscape(toQasm(p.left)) + "\"}, \"right\": {\"qasm\": \"" +
         jsonEscape(toQasm(p.right)) + "\"}}";
}

/// Sends a request whose answer must be JSON with `status`; reports and
/// returns nullopt otherwise.
std::optional<JVal> jsonRequest(Run& run, Kind kind, const std::string& method,
                                const std::string& target,
                                const std::string& body, int status,
                                const char* what) {
  const HttpResult r = run.send(kind, method, target, body);
  if (r.status != status) {
    run.unexpected(std::string(what) + ": HTTP " + std::to_string(r.status) +
                   " " + r.body.substr(0, 200));
    return std::nullopt;
  }
  try {
    return parseJson(r.body);
  } catch (const std::exception& e) {
    run.unexpected(std::string(what) + ": " + e.what());
    return std::nullopt;
  }
}

/// Creates a simulation session for `t.circuit`; returns its id or "".
std::string openSession(Run& run, SimTracker& t, std::uint64_t seed) {
  const auto doc = jsonRequest(run, Kind::Create, "POST", "/v1/sessions",
                               createBody(t.circuit, seed), 201, "create");
  if (!doc) {
    return {};
  }
  try {
    if (static_cast<std::size_t>(doc->number("operations")) !=
        t.circuit.gates.size()) {
      run.unexpected("create: operation count differs from the circuit");
      return {};
    }
    const std::string why = checkSimDoc(run, *doc, t, 0);
    if (!why.empty()) {
      run.unexpected("create: " + why);
      return {};
    }
    return doc->string("id");
  } catch (const std::exception& e) {
    run.unexpected(std::string("create: ") + e.what());
    return {};
  }
}

/// One timed or untimed step/back/reset on a simulation session, checked.
bool navigate(Run& run, Kind kind, const std::string& id, SimTracker& t,
              const std::string& action) {
  const std::size_t expect = action == "step"    ? t.pos + 1
                             : action == "back"  ? t.pos - 1
                                                 : 0;
  const auto doc =
      jsonRequest(run, kind, "POST", "/v1/sessions/" + id + "/" + action, {},
                  200, action.c_str());
  if (!doc) {
    return false;
  }
  try {
    const std::string why = checkSimDoc(run, *doc, t, expect);
    if (!why.empty()) {
      run.unexpected(action + ": " + why);
      return false;
    }
  } catch (const std::exception& e) {
    run.unexpected(action + ": " + e.what());
    return false;
  }
  return true;
}

bool deleteSession(Run& run, const std::string& id) {
  const auto doc = jsonRequest(run, Kind::Other, "DELETE",
                               "/v1/sessions/" + id, {}, 200, "delete");
  if (doc && !doc->flag("deleted")) {
    run.unexpected("delete: not confirmed");
    return false;
  }
  return doc.has_value();
}

// --- workloads -----------------------------------------------------------------

class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Extra `serve` flags beyond the defaults.
  [[nodiscard]] virtual std::vector<std::string>
  serverFlags(const std::string& /*workdir*/) const {
    return {};
  }
  /// Untimed preparation against the running server (part of setup_s).
  virtual void prepare(Run& run) = 0;
  /// One whole round of the timed phase.
  virtual void round(Run& run, std::size_t r) = 0;
  /// Checks made over the whole timed phase (server counters).
  virtual void finish(Run& /*run*/, double /*restoresDelta*/) {}
};

/// One user stepping circuits the way the paper's UI does (Sec. IV-B).
class Interactive final : public Workload {
public:
  explicit Interactive(std::uint64_t seed) : seed(seed) {}

  static constexpr int kFamilies = 6;

  /// Circuit of `family` for round r. Widths cycle through 6..12 per
  /// family, so every run sees the same mix of sizes; the seed picks the
  /// gates, inputs and measured qubits. Odd rounds add a mid-circuit
  /// measurement and reset where the state is in superposition.
  [[nodiscard]] Circuit circuit(std::size_t r, int family) const {
    Rng rng(mix(mix(seed, r), static_cast<std::uint64_t>(family)));
    const int n = 6 + static_cast<int>(
                          (r + 2 * static_cast<std::size_t>(family) + seed) % 7);
    return make(family, n, rng, r % 2 == 1);
  }

  static Circuit make(int family, int n, Rng& rng, bool measureAndReset) {
    Circuit c;
    switch (family) {
    case 0: c = qft(n, rng.below(1ULL << static_cast<unsigned>(n))); break;
    case 1: c = ghz(n); break;
    case 2: c = wState(n); break;
    case 3: {
      const int k = groverDataQubits(n);
      c = grover(n, rng.below(1ULL << static_cast<unsigned>(k)), 1);
      break;
    }
    case 4: c = cliffordT(n, 3 * n, rng); break;
    default: {
      const int m = (n - 2) / 2;
      c = adder(m, rng.below(1ULL << static_cast<unsigned>(m)),
                rng.below(1ULL << static_cast<unsigned>(m)));
      break;
    }
    }
    if (measureAndReset && family != 3 && family != 5) {
      addMidCircuitMeasureReset(c, rng);
    }
    return c;
  }

  void prepare(Run& run) override {
    // one untimed walk per family on fixed 6-qubit circuits, so lazy set-up
    // in the server is done before timing and set-up work does not depend
    // on the seed
    for (int f = 0; f < kFamilies; ++f) {
      Rng rng(static_cast<std::uint64_t>(f));
      walk(run, make(f, 6, rng, true), 0);
    }
  }

  void round(Run& run, std::size_t r) override {
    for (int f = 0; f < kFamilies; ++f) {
      walk(run, circuit(r, f), mix(seed, r * kFamilies + static_cast<std::size_t>(f)));
    }
  }

private:
  void walk(Run& run, const Circuit& c, std::uint64_t sessionSeed) {
    SimTracker t(c);
    const std::string id = openSession(run, t, sessionSeed % 1000000);
    if (id.empty()) {
      return;
    }
    const std::size_t ops = c.gates.size();
    for (std::size_t k = 0; k < ops; ++k) {
      navigate(run, Kind::Timed, id, t, "step");
    }
    const std::size_t backs = std::min<std::size_t>(3, ops);
    for (std::size_t k = 0; k < backs; ++k) {
      navigate(run, Kind::Timed, id, t, "back");
    }
    for (std::size_t k = 0; k < backs; ++k) {
      navigate(run, Kind::Timed, id, t, "step");
    }
    navigate(run, Kind::Timed, id, t, "reset");
    for (const char* fmt : {"svg", "dot"}) {
      const HttpResult r = run.send(Kind::Other, "GET",
                                    "/v1/sessions/" + id + "/dd?fmt=" + fmt);
      const bool ok = r.status == 200 &&
                      (std::strcmp(fmt, "svg") == 0
                           ? r.body.find("<svg") != std::string::npos &&
                                 r.body.find("</svg>") != std::string::npos
                           : r.body.rfind("digraph", 0) == 0);
      if (!ok) {
        run.unexpected(std::string("export ") + fmt + ": HTTP " +
                       std::to_string(r.status));
      }
    }
    deleteSession(run, id);
  }

  std::uint64_t seed;
};

/// Whole-circuit jobs: verification sessions run to a verdict with the
/// alternating scheme, and simulations run to the end.
class Analysis final : public Workload {
public:
  struct Job {
    std::string label;
    std::string body;
    bool verification = false;
    bool equivalent = false;
    int n = 0;
    std::size_t operations = 0;
    State expected; ///< simulation: final state (dense oracle or closed form)
    std::uint64_t marked = 0;
    int groverIterations = -1; ///< >= 0: also check the success probability
  };

  explicit Analysis(std::uint64_t seed, Run& run) {
    validateClosedForms(run);
    Rng rng(mix(seed, 0xA11));
    // {qubits, equivalent}: the verifier half of the round. Sorted by
    // latency, a round is 3 cheap simulations and the 10-qubit pair, the
    // 12-qubit pair, twelve 14-qubit pairs mixed with the 16-qubit one, and
    // 4 heavy simulations. The 14-qubit pairs hold the middle, so the
    // median of op_ms falls inside one cluster rather than in a gap between
    // two, and it averages over twelve seeded circuits.
    std::vector<std::pair<int, bool>> pairs = {{10, true}, {12, false}, {16, true}};
    for (int k = 0; k < 12; ++k) {
      pairs.emplace_back(14, k % 2 == 0);
    }
    for (const auto& [n, eq] : pairs) {
      Pair p = compiledPair(n, 5 * n, eq, rng);
      confirmPair(run, p, rng);
      Job j;
      j.label = std::string(eq ? "equivalent" : "non-equivalent") + " pair n=" +
                std::to_string(n);
      j.body = createPairBody(p);
      j.verification = true;
      j.equivalent = eq;
      j.n = n;
      jobs.push_back(std::move(j));
    }
    // the simulator half: compact final states
    // QFT inputs are odd: with k trailing zero bits the transform of |x>
    // is a QFT on n-k qubits, so odd inputs give every seed the full work
    {
      const std::uint64_t x = 2 * rng.below(1ULL << 13U) + 1;
      Circuit c = qft(14, x);
      addSim(simulate(c, basisState(14)), c, "qft n=14 (dense oracle)");
    }
    {
      const std::uint64_t x = 2 * rng.below(1ULL << 17U) + 1;
      addSim(qftClosedForm(18, x), qft(18, x), "qft n=18");
    }
    for (const int n : {15, 17}) {
      const int k = groverDataQubits(n);
      const std::uint64_t marked = rng.below(1ULL << static_cast<unsigned>(k));
      const int r = groverOptimalIterations(k);
      addSim(groverClosedForm(n, marked, r), grover(n, marked, r),
             "grover n=" + std::to_string(n));
      jobs.back().marked = marked;
      jobs.back().groverIterations = r;
    }
    for (const int m : {7, 9}) {
      const std::uint64_t a = rng.below(1ULL << static_cast<unsigned>(m));
      const std::uint64_t b = rng.below(1ULL << static_cast<unsigned>(m));
      const int n = 2 * m + 2;
      addSim(basisState(n, adderResult(m, a, b)), adder(m, a, b),
             "adder n=" + std::to_string(n));
    }
    addSim(ghzClosedForm(20), ghz(20), "ghz n=20");
  }

  void prepare(Run& run) override {
    // each job of up to 16 qubits once, untimed, so lazy set-up in the
    // server is done before timing
    for (const Job& j : jobs) {
      if (j.n <= 16) {
        runJob(run, j);
      }
    }
  }

  void round(Run& run, std::size_t /*r*/) override {
    for (const Job& j : jobs) {
      runJob(run, j);
    }
  }

private:
  void addSim(State expected, const Circuit& c, std::string label) {
    Job j;
    j.label = std::move(label);
    j.body = createBody(c, 0);
    j.n = c.n;
    j.operations = c.gates.size();
    j.expected = std::move(expected);
    jobs.push_back(std::move(j));
  }

  /// The closed forms stand in for the dense oracle above 14 qubits, so
  /// each is first checked against it on a small instance.
  static void validateClosedForms(Run& run) {
    const auto agree = [&](const State& closed, const Circuit& c,
                           const char* what) {
      const double f = fidelity(closed, simulate(c, basisState(c.n)));
      if (f < 1. - 1e-12) {
        run.unexpected(std::string("closed form disagrees with the dense "
                                   "oracle: ") +
                       what);
      }
    };
    agree(qftClosedForm(6, 37), qft(6, 37), "qft");
    agree(groverClosedForm(9, 21, 4), grover(9, 21, 4), "grover");
    agree(basisState(8, adderResult(3, 5, 6)), adder(3, 5, 6), "adder");
    agree(ghzClosedForm(6), ghz(6), "ghz");
  }

  /// Confirms the pair's construction on dense unitaries for n <= 10 and on
  /// two random states above that. The unitaries are compared a block of
  /// columns at a time, so each block stays in cache through all gates.
  static void confirmPair(Run& run, const Pair& p, Rng& rng) {
    const int n = p.left.n;
    const std::size_t dim = std::size_t{1} << static_cast<unsigned>(n);
    const std::size_t cols = n <= 10 ? 64 : 2;
    const std::size_t blocks = n <= 10 ? dim / cols : 1;
    double diff = 0.;
    for (std::size_t block = 0; block < blocks; ++block) {
      State in(dim * cols);
      for (std::size_t c = 0; c < cols; ++c) {
        if (n <= 10) {
          in[(block * cols + c) * cols + c] = 1.;
        } else {
          for (std::size_t x = 0; x < dim; ++x) {
            in[x * cols + c] = cplx(rng.unit() - 0.5, rng.unit() - 0.5);
          }
        }
      }
      const State a = simulate(p.left, in, cols);
      const State b = simulate(p.right, in, cols);
      for (std::size_t x = 0; x < a.size(); ++x) {
        diff = std::max(diff, std::abs(a[x] - b[x]));
      }
    }
    if ((diff <= 1e-9) != p.equivalent) {
      run.unexpected("pair construction not confirmed by the dense oracle");
    }
  }

  void runJob(Run& run, const Job& j) {
    const auto created = jsonRequest(run, Kind::Create, "POST", "/v1/sessions",
                                     j.body, 201, "create");
    if (!created) {
      return;
    }
    std::string id;
    try {
      id = created->string("id");
      const auto ran = jsonRequest(run, Kind::Timed, "POST",
                                   "/v1/sessions/" + id + "/run", "{}", 200,
                                   "run");
      if (ran) {
        const std::string why = j.verification ? checkVerdict(*ran, j)
                                               : checkFinalState(run, *ran, j);
        if (!why.empty()) {
          run.unexpected("run " + j.label + ": " + why);
        }
      }
    } catch (const std::exception& e) {
      run.unexpected("run " + j.label + ": " + e.what());
    }
    if (!id.empty()) {
      deleteSession(run, id);
    }
  }

  static std::string checkVerdict(const JVal& doc, const Job& j) {
    const std::string want = j.equivalent ? "equivalent" : "not equivalent";
    const std::string got = doc.string("equivalence");
    if (got != want) {
      return "verdict \"" + got + "\", constructed as \"" + want + "\"";
    }
    if (!doc.flag("finished")) {
      return "verification not finished";
    }
    return {};
  }

  static std::string checkFinalState(Run& run, const JVal& doc, const Job& j) {
    if (!doc.flag("atEnd") ||
        static_cast<std::size_t>(doc.number("position")) != j.operations) {
      return "simulation did not reach the end";
    }
    const JVal* dd = doc.get("dd");
    if (dd == nullptr) {
      return "document without dd";
    }
    const State served = expandVectorDd(*dd, j.n);
    const Comparison cmp =
        compareStates(served, j.expected, servedTolerance(j.n, j.operations));
    run.worstInfidelity = std::max(run.worstInfidelity, cmp.infidelity);
    run.worstNormError = std::max(run.worstNormError, cmp.normError);
    if (!cmp.ok) {
      return "final state differs (infidelity " + jsonNum(cmp.infidelity) +
             ", norm error " + jsonNum(cmp.normError) + ")";
    }
    if (j.groverIterations >= 0) {
      const double p = std::norm(served[j.marked]);
      const double want = groverSuccessProbability(j.n, j.groverIterations);
      if (std::abs(p - want) > servedTolerance(j.n, j.operations)) {
        return "success probability " + jsonNum(p) + ", expected " +
               jsonNum(want);
      }
    }
    return {};
  }

  std::vector<Job> jobs;
};

/// Many small sessions under a resident budget: every timed request lands
/// on a spilled session and restores it.
class Fleet final : public Workload {
public:
  static constexpr std::size_t kSessions = fleet::kSessions;
  static constexpr std::size_t kBudget = fleet::kBudget;
  static constexpr std::size_t kSetupSteps = 3;

  explicit Fleet(std::uint64_t seed) : seed(seed) {}

  std::vector<std::string> serverFlags(const std::string& workdir) const override {
    return {"--spill-dir", workdir + "/spill", "--spill-budget",
            std::to_string(kBudget), "--max-sessions",
            std::to_string(fleet::kMaxSessions)};
  }

  void prepare(Run& run) override {
    for (std::size_t i = 0; i < kSessions; ++i) {
      open(run);
    }
  }

  /// A round is a timed step and a timed back, each on the coldest session,
  /// each followed by deleting the oldest session and creating a new one.
  void round(Run& run, std::size_t /*r*/) override {
    touchColdest(run, "step");
    replaceOldest(run);
    touchColdest(run, "back");
    replaceOldest(run);
  }

  void finish(Run& run, double restoresDelta) override {
    if (restoresDelta != static_cast<double>(timedTouches)) {
      run.unexpected("server restored " + jsonNum(restoresDelta) +
                     " sessions for " + std::to_string(timedTouches) +
                     " timed requests; each should restore exactly one");
    }
  }

private:
  struct Live {
    std::string id;
    SimTracker tracker;
  };

  [[nodiscard]] Circuit circuit(std::size_t i) const {
    Rng rng(mix(seed, 0xF1EE7 + i));
    const int n = 6 + static_cast<int>(i % 3);
    switch (i % 4) {
    case 0: return ghz(n);
    case 1: return qft(n, rng.below(1ULL << static_cast<unsigned>(n)));
    case 2: return wState(n);
    default: return cliffordT(n, 3 * n, rng);
    }
  }

  void open(Run& run) {
    Live s{{}, SimTracker(circuit(created++))};
    s.id = openSession(run, s.tracker, 0);
    if (s.id.empty()) {
      return;
    }
    for (std::size_t k = 0; k < kSetupSteps; ++k) {
      navigate(run, Kind::Other, s.id, s.tracker, "step");
    }
    sessions.push_back(std::move(s));
  }

  void replaceOldest(Run& run) {
    if (!sessions.empty()) {
      deleteSession(run, sessions.front().id);
      sessions.pop_front();
    }
    open(run);
  }

  /// The oldest live session is also the coldest: it was last used when it
  /// was created, and every later session has been used since.
  void touchColdest(Run& run, const std::string& action) {
    if (sessions.empty()) {
      run.unexpected("fleet: no live session");
      return;
    }
    Live& s = sessions.front();
    SimTracker& t = s.tracker;
    const std::size_t before = t.pos;
    ++timedTouches;
    const auto doc = jsonRequest(run, Kind::Timed, "POST",
                                 "/v1/sessions/" + s.id + "/" + action, {},
                                 200, action.c_str());
    if (!doc) {
      return;
    }
    std::string why;
    bool backUndidNothing = false;
    try {
      // kept fault: the step history is not part of the spill image, so
      // `back` on a restored session undoes nothing
      backUndidNothing =
          action == "back" && doc->number("stepsUndone") == 0. &&
          static_cast<std::size_t>(doc->number("position")) == before;
      const std::size_t expect = action == "step" ? before + 1
                                 : backUndidNothing ? before
                                                    : before - 1;
      // restored sessions must match the oracle exactly as resident ones do
      why = checkSimDoc(run, *doc, t, expect);
    } catch (const std::exception& e) {
      why = e.what();
    }
    const auto health =
        jsonRequest(run, Kind::Probe, "GET", "/healthz", {}, 200, "healthz");
    const JVal* resident = health ? health->get("resident") : nullptr;
    if (health && resident == nullptr) {
      why = "healthz without a resident count";
    }
    // kept fault: a restore never re-applies the spill budget
    const bool overBudget =
        resident != nullptr && resident->num > static_cast<double>(kBudget);
    run.knownFaults[0] += backUndidNothing ? 1 : 0;
    run.knownFaults[1] += overBudget ? 1 : 0;
    if (!why.empty()) {
      run.unexpected("fleet " + action + ": " + why);
    } else if (backUndidNothing || overBudget) {
      run.knownFault();
    }
  }

  std::uint64_t seed;
  std::size_t created = 0;
  std::size_t timedTouches = 0;
  std::deque<Live> sessions;
};

/// A Prometheus sample value from a /metrics?fmt=prom document.
double promSample(const std::string& doc, const std::string& name) {
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return std::nan("");
}

int runMain(const Args& args) {
  // the oracle's inputs are made before the server starts, so their cost
  // stays out of setup_s
  Run run;
  std::unique_ptr<Workload> workload;
  if (args.workload == "interactive") {
    workload = std::make_unique<Interactive>(args.seed);
  } else if (args.workload == "analysis") {
    workload = std::make_unique<Analysis>(args.seed, run);
  } else if (args.workload == "fleet") {
    workload = std::make_unique<Fleet>(args.seed);
  } else {
    throw std::runtime_error("unknown workload " + args.workload);
  }
  if (!args.script.empty()) {
    run.script.open(args.script);
  }

  // `serve` does not create its spill directory (fleet passes it)
  std::filesystem::create_directories(args.workdir + "/spill");
  const auto t0 = Clock::now();
  ServerProcess server(args.tool, workload->serverFlags(args.workdir),
                       args.workdir + "/server.log");
  HttpConnection conn(server.port);
  run.http = &conn;
  // the server accepts requests once /healthz answers
  while (!conn.connectOnce()) {
    if (secondsSince(t0) > 30.) {
      throw std::runtime_error("server does not accept connections");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (run.send(Kind::Probe, "GET", "/healthz").status != 200) {
    throw std::runtime_error("/healthz failed");
  }
  workload->prepare(run);
  const double setupS = secondsSince(t0);

  const auto promBefore = run.send(Kind::Probe, "GET", "/metrics?fmt=prom").body;
  const ProcSnapshot before = procSnapshot(server.pid);
  run.timing = true;
  const auto tRun = Clock::now();
  for (std::size_t r = 0; r == 0 || secondsSince(tRun) < args.seconds; ++r) {
    workload->round(run, r);
    ++run.rounds;
  }
  run.timing = false;
  const ProcSnapshot after = procSnapshot(server.pid);
  const auto promAfter = run.send(Kind::Probe, "GET", "/metrics?fmt=prom").body;
  const double rssMiB = peakRssMiB(server.pid);
  workload->finish(run, promSample(promAfter, "qdd_service_session_restores_total") -
                            promSample(promBefore, "qdd_service_session_restores_total"));
  conn.close();
  server.stop();
  if (run.script.is_open()) {
    run.script.close();
  }

  const double timed = static_cast<double>(run.opMs.size());
  const double requests = static_cast<double>(run.requests);
  std::string metrics;
  addMetric(metrics, "setup_s", setupS, "s");
  addMetric(metrics, "op_ms", median(run.opMs), "ms");
  addMetric(metrics, "open_ms", median(run.openMs), "ms");
  addMetric(metrics, "server_cpu_ms_per_op", (after.cpuMs - before.cpuMs) / timed,
            "ms");
  addMetric(metrics, "server_rss_mib", rssMiB, "MiB");
  addMetric(metrics, "response_kib_per_op", run.timedBytes / 1024. / timed,
            "KiB");
  std::string layers;
  addMetric(layers, "exec.switches_per_request",
            (after.voluntarySwitches - before.voluntarySwitches) / requests,
            "count");
  addMetric(layers, "exec.runqueue_ms_per_request",
            (after.runDelayMs - before.runDelayMs) / requests, "ms");
  addMetric(layers, "client.cpu_ms_per_op", run.clientCpuMs / requests, "ms");

  std::string errors;
  for (const auto& e : run.errors) {
    errors += (errors.empty() ? "\"" : ", \"") + jsonEscape(e) + "\"";
  }
  std::cout << "{\"correct\": " << (run.correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": {" << metrics
            << "}, \"layers\": {" << layers << "}, \"info\": {"
            << "\"op_ms_p90\": " << jsonNum(quantile(run.opMs, 0.9))
            << ", \"op_ms_p99\": " << jsonNum(quantile(run.opMs, 0.99))
            << ", \"op_samples\": " << run.opMs.size()
            << ", \"open_ms_p90\": " << jsonNum(quantile(run.openMs, 0.9))
            << ", \"open_ms_p99\": " << jsonNum(quantile(run.openMs, 0.99))
            << ", \"open_samples\": " << run.openMs.size()
            << ", \"requests\": " << run.requests
            << ", \"rounds\": " << run.rounds
            << ", \"back_after_restore_failures\": " << run.knownFaults[0]
            << ", \"budget_after_restore_failures\": " << run.knownFaults[1]
            << ", \"worst_infidelity\": " << jsonNum(run.worstInfidelity)
            << ", \"worst_norm_error\": " << jsonNum(run.worstNormError)
            << ", \"timed_seconds\": " << jsonNum(secondsSince(tRun))
            << ", \"errors\": [" << errors << "]}}" << std::endl;
  return 0;
}

} // namespace
} // namespace sessbench

int main(int argc, char** argv) {
  try {
    return sessbench::runMain(sessbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sessbench-load: %s\n", e.what());
    return 1;
  }
}
