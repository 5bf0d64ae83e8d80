#include "qdd/service/Api.hpp"

#include "qdd/exec/Portfolio.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/obs/Obs.hpp"
#include "qdd/parser/qasm/Parser.hpp"
#include "qdd/dd/Serialization.hpp"
#include "qdd/service/DdJson.hpp"
#include "qdd/service/RequestContext.hpp"
#include "qdd/viz/DotExporter.hpp"
#include "qdd/viz/Graph.hpp"
#include "qdd/viz/JsonExporter.hpp"
#include "qdd/viz/SvgExporter.hpp"
#include "qdd/viz/TextDump.hpp"

#include <algorithm>

namespace qdd::service {

namespace {

json::Value num(std::size_t n) {
  return json::Value::number(static_cast<double>(n));
}

viz::Graph sessionGraph(SessionStore::Entry& entry) {
  if (entry.simulation) {
    return viz::buildGraph(entry.simulation->state());
  }
  return viz::buildGraph(entry.verification->state());
}

/// Live DD node count of the session's current state (for the access-log
/// node-delta annotation). Caller holds the entry mutex.
std::int64_t liveNodes(SessionStore::Entry& entry) {
  const std::size_t n = entry.simulation
                            ? entry.simulation->currentNodes()
                            : entry.verification->currentNodes();
  return static_cast<std::int64_t>(n);
}

/// Export options from ?style=modern&labels=0&colored=1&thickness=1.
viz::ExportOptions exportOptions(const HttpRequest& request) {
  viz::ExportOptions opts;
  const auto get = [&request](const char* key,
                              const std::string& fallback) -> std::string {
    const auto it = request.query.find(key);
    return it == request.query.end() ? fallback : it->second;
  };
  if (get("style", "classic") == "modern") {
    opts.style = viz::Style::Modern;
  }
  opts.edgeLabels = get("labels", "1") != "0";
  opts.colored = get("colored", "0") == "1";
  opts.magnitudeThickness = get("thickness", "0") == "1";
  return opts;
}

json::Value parseBody(const HttpRequest& request) {
  if (request.body.empty()) {
    return json::Value::object();
  }
  try {
    return json::Value::parse(request.body);
  } catch (const json::ParseError& e) {
    throw ApiError(400, "invalid_json", e.what());
  }
}

HttpResponse ok(const json::Value& doc, int status = 200) {
  return HttpResponse::json(status, doc.dump());
}

/// 408 body: the uniform error object plus where the work stopped.
HttpResponse deadlineResponse(std::size_t stepsApplied,
                              const std::string& detail) {
  json::Value error = json::Value::object();
  error.set("code", json::Value::string("deadline_exceeded"));
  error.set("message",
            json::Value::string("deadline expired; " + detail +
                                " (work stopped at a gate boundary)"));
  error.set("status", json::Value::number(408));
  json::Value doc = json::Value::object();
  doc.set("error", std::move(error));
  doc.set("stepsApplied", num(stepsApplied));
  return HttpResponse::json(408, doc.dump());
}

SessionStoreOptions storeOptions(const ApiOptions& options) {
  SessionStoreOptions opts;
  opts.maxSessions = options.maxSessions;
  opts.ttlMs = options.sessionTtlMs;
  opts.spillDir = options.spillDir;
  opts.spillAfterMs = options.spillAfterMs;
  opts.maxResident = options.maxResidentSessions;
  return opts;
}

} // namespace

Api::Api(ApiOptions options, ServiceMetrics& metrics)
    : options(options), metrics(metrics), store(storeOptions(options)),
      incidentLog(options.maxIncidents, options.incidentDir) {}

void Api::install(Router& router) {
  const auto wrap = [this](auto method) {
    return [this, method](const HttpRequest& request,
                          const PathParams& params) -> HttpResponse {
      try {
        return method(*this, request, params);
      } catch (const ApiError& e) {
        return errorResponse(e.status, e.code, e.what());
      }
    };
  };

  router.add("POST", "/v1/sessions",
             wrap([](Api& api, const HttpRequest& r, const PathParams&) {
               return api.createSession(r);
             }));
  router.add("GET", "/v1/sessions",
             wrap([](Api& api, const HttpRequest&, const PathParams&) {
               return api.listSessions();
             }));
  router.add("GET", "/v1/sessions/{id}",
             wrap([](Api& api, const HttpRequest&, const PathParams& p) {
               return api.getSession(p.at("id"));
             }));
  router.add("DELETE", "/v1/sessions/{id}",
             wrap([](Api& api, const HttpRequest&, const PathParams& p) {
               return api.deleteSession(p.at("id"));
             }));
  router.add("POST", "/v1/sessions/{id}/step",
             wrap([](Api& api, const HttpRequest& r, const PathParams& p) {
               return api.stepSession(p.at("id"), r);
             }));
  router.add("POST", "/v1/sessions/{id}/back",
             wrap([](Api& api, const HttpRequest& r, const PathParams& p) {
               return api.backSession(p.at("id"), r);
             }));
  router.add("POST", "/v1/sessions/{id}/reset",
             wrap([](Api& api, const HttpRequest&, const PathParams& p) {
               return api.resetSession(p.at("id"));
             }));
  router.add("POST", "/v1/sessions/{id}/run",
             wrap([](Api& api, const HttpRequest& r, const PathParams& p) {
               return api.runSession(p.at("id"), r);
             }));
  router.add("GET", "/v1/sessions/{id}/dd",
             wrap([](Api& api, const HttpRequest& r, const PathParams& p) {
               return api.exportDd(p.at("id"), r);
             }));
  router.add("POST", "/v1/verify",
             wrap([](Api& api, const HttpRequest& r, const PathParams&) {
               return api.verifyOnce(r);
             }));
  router.add("GET", "/healthz",
             wrap([](Api& api, const HttpRequest&, const PathParams&) {
               return api.healthz();
             }));
  router.add("GET", "/metrics",
             wrap([](Api& api, const HttpRequest& r, const PathParams&) {
               return api.metricsDoc(r);
             }));
  router.add("GET", "/v1/incidents",
             wrap([](Api& api, const HttpRequest&, const PathParams&) {
               return api.listIncidents();
             }));
  router.add("GET", "/v1/incidents/{id}",
             wrap([](Api& api, const HttpRequest&, const PathParams& p) {
               return api.getIncident(p.at("id"));
             }));
}

// --- circuit admission -------------------------------------------------------

ir::QuantumComputation Api::buildCircuit(const json::Value& spec) const {
  if (!spec.isObject()) {
    throw ApiError(400, "invalid_request", "circuit spec must be an object");
  }

  ir::QuantumComputation qc;
  if (const json::Value* qasm = spec.find("qasm")) {
    if (!qasm->isString()) {
      throw ApiError(400, "invalid_request", "\"qasm\" must be a string");
    }
    try {
      qc = qasm::parse(qasm->asString(), "request");
    } catch (const std::exception& e) {
      throw ApiError(400, "invalid_qasm", e.what());
    }
  } else if (const json::Value* builder = spec.find("builder")) {
    const std::string name = builder->getString("name", "");
    const auto qubits =
        static_cast<std::size_t>(builder->getNumber("qubits", 3));
    if (qubits > options.maxQubits) {
      throw ApiError(413, "circuit_too_large",
                     "builder requests " + std::to_string(qubits) +
                         " qubits (limit " +
                         std::to_string(options.maxQubits) + ")");
    }
    namespace b = ir::builders;
    if (name == "bell") {
      qc = b::bell();
    } else if (name == "ghz") {
      qc = b::ghz(qubits);
    } else if (name == "qft") {
      qc = b::qft(qubits, builder->getBool("swaps", true));
    } else if (name == "wstate") {
      qc = b::wState(qubits);
    } else if (name == "grover") {
      qc = b::grover(
          qubits,
          static_cast<std::uint64_t>(builder->getNumber("marked", 0)),
          static_cast<std::size_t>(builder->getNumber("iterations", 0)));
    } else if (name == "bv") {
      qc = b::bernsteinVazirani(
          qubits, static_cast<std::uint64_t>(builder->getNumber("s", 1)));
    } else if (name == "random") {
      qc = b::randomCliffordT(
          qubits, static_cast<std::size_t>(builder->getNumber("depth", 10)),
          static_cast<std::uint64_t>(builder->getNumber("seed", 1)));
    } else if (name == "qpe") {
      qc = b::phaseEstimation(
          qubits, static_cast<std::uint64_t>(builder->getNumber("k", 1)));
    } else if (name == "dj") {
      qc = b::deutschJozsa(qubits, builder->getBool("balanced", true));
    } else if (name == "adder") {
      qc = b::rippleCarryAdder(qubits);
    } else {
      throw ApiError(400, "unknown_builder",
                     "unknown builder \"" + name + "\"");
    }

    // `repeat` concatenates R copies of the op list — the cheap way to make
    // a circuit of any length (the deadline tests rely on this to build
    // runs that provably cannot finish inside a millisecond budget).
    const auto repeat =
        static_cast<std::size_t>(builder->getNumber("repeat", 1));
    if (repeat > 1) {
      const std::size_t base = qc.size();
      // division instead of `base * repeat > max` — the product can wrap
      // std::size_t for absurd repeat values and sneak past the cap
      if (base != 0 && repeat > options.maxOperations / base) {
        throw ApiError(413, "circuit_too_large",
                       "repeat of " + std::to_string(repeat) + " x " +
                           std::to_string(base) +
                           " operations exceeds the limit (" +
                           std::to_string(options.maxOperations) + ")");
      }
      for (std::size_t r = 1; r < repeat; ++r) {
        for (std::size_t k = 0; k < base; ++k) {
          qc.emplaceBack(qc.at(k).clone());
        }
      }
    }
  } else {
    throw ApiError(400, "invalid_request",
                   "circuit spec needs \"qasm\" or \"builder\"");
  }

  if (spec.getBool("decompose", false)) {
    qc = ir::decomposeToNativeGates(qc, /*insertBarriers=*/true);
  }

  if (qc.numQubits() > options.maxQubits) {
    throw ApiError(413, "circuit_too_large",
                   "circuit has " + std::to_string(qc.numQubits()) +
                       " qubits (limit " +
                       std::to_string(options.maxQubits) + ")");
  }
  if (qc.size() > options.maxOperations) {
    throw ApiError(413, "circuit_too_large",
                   "circuit has " + std::to_string(qc.size()) +
                       " operations (limit " +
                       std::to_string(options.maxOperations) + ")");
  }
  return qc;
}

std::int64_t Api::clampDeadline(const json::Value& body) const {
  const auto requested = static_cast<std::int64_t>(body.getNumber(
      "deadlineMs", static_cast<double>(options.defaultDeadlineMs)));
  return std::min(requested, options.maxDeadlineMs);
}

std::shared_ptr<SessionStore::Entry> Api::require(const std::string& id) {
  auto entry = store.find(id);
  if (entry == nullptr) {
    throw ApiError(404, "session_not_found", "no session \"" + id + "\"");
  }
  return entry;
}

std::unique_lock<std::mutex> Api::lockSession(SessionStore::Entry& entry) {
  std::unique_lock<std::mutex> lock(entry.mutex);
  try {
    store.ensureResident(entry);
  } catch (const RestoreError& e) {
    throw ApiError(500, "restore_failed", e.what());
  }
  return lock;
}

// --- documents ---------------------------------------------------------------

json::Value Api::sessionDoc(SessionStore::Entry& entry,
                            bool includeDd) const {
  json::Value doc = json::Value::object();
  doc.set("id", json::Value::string(entry.id));
  doc.set("kind", json::Value::string(entry.kind));
  doc.set("name", json::Value::string(entry.name));
  doc.set("qubits", num(entry.qubits));
  if (entry.simulation) {
    const sim::SimulationSession& s = *entry.simulation;
    doc.set("operations", num(s.numOperations()));
    doc.set("position", num(s.position()));
    doc.set("atEnd", json::Value::boolean(s.atEnd()));
    doc.set("nodes", num(s.currentNodes()));
    doc.set("peakNodes", num(s.peakNodes()));
    if (!s.stepProfiles().empty()) {
      json::Value profile = json::Value::object();
      profile.set("durationUs",
                  json::Value::number(s.stepProfiles().back().durationUs));
      doc.set("lastStep", std::move(profile));
    }
    if (entry.qubits <= 10) {
      doc.set("state", json::Value::string(
                           viz::toDirac(*entry.package, s.state())));
    }
  } else {
    verify::VerificationSession& v = *entry.verification;
    doc.set("leftPosition", num(v.leftPosition()));
    doc.set("rightPosition", num(v.rightPosition()));
    doc.set("leftSize", num(v.leftSize()));
    doc.set("rightSize", num(v.rightSize()));
    doc.set("finished", json::Value::boolean(v.finished()));
    doc.set("nodes", num(v.currentNodes()));
    doc.set("peakNodes", num(v.peakNodes()));
    if (v.finished()) {
      doc.set("verdict",
              json::Value::string(verify::toString(v.currentVerdict())));
    }
  }
  if (includeDd) {
    doc.set("dd", json::Value::raw(ddJson(sessionGraph(entry))));
  }
  return doc;
}

// --- handlers ----------------------------------------------------------------

HttpResponse Api::createSession(const HttpRequest& request) {
  const json::Value body = parseBody(request);
  const std::string kind = body.getString("kind", "simulation");
  if (kind != "simulation" && kind != "verification") {
    throw ApiError(400, "invalid_request",
                   "\"kind\" must be \"simulation\" or \"verification\"");
  }

  // Build circuits before admission, so an over-limit request never burns a
  // session slot.
  ir::QuantumComputation left;
  ir::QuantumComputation right;
  if (kind == "simulation") {
    left = buildCircuit(body);
  } else {
    const json::Value* l = body.find("left");
    const json::Value* r = body.find("right");
    if (l == nullptr || r == nullptr) {
      throw ApiError(400, "invalid_request",
                     "verification needs \"left\" and \"right\" specs");
    }
    left = buildCircuit(*l);
    right = buildCircuit(*r);
    if (left.numQubits() != right.numQubits()) {
      throw ApiError(400, "invalid_request",
                     "left and right act on different qubit counts");
    }
  }

  // create() only reserves a slot + id; the entry stays invisible to
  // find()/list() until publish(), so no request can ever observe a
  // half-constructed session (null simulation AND null verification).
  auto entry = store.create(kind);
  if (entry == nullptr) {
    throw ApiError(429, "too_many_sessions",
                   "session limit of " + std::to_string(store.capacity()) +
                       " reached; delete a session or retry later");
  }

  try {
    entry->qubits = std::max<std::size_t>(left.numQubits(), 1);
    entry->package = std::make_unique<Package>(entry->qubits);
    if (kind == "simulation") {
      entry->name = left.name().empty() ? "circuit" : left.name();
      // keep the seed on the entry: a spill/restore cycle reconstructs the
      // session with the same RNG stream
      entry->seed = static_cast<std::uint64_t>(body.getNumber("seed", 0));
      entry->simulation = std::make_unique<sim::SimulationSession>(
          left, *entry->package, entry->seed);
    } else {
      entry->name = (left.name().empty() ? "left" : left.name()) + " vs " +
                    (right.name().empty() ? "right" : right.name());
      entry->verification = std::make_unique<verify::VerificationSession>(
          left, right, *entry->package);
    }
  } catch (const std::exception& e) {
    store.abandon(entry);
    throw ApiError(400, "invalid_circuit", e.what());
  }

  // Snapshot the response while the entry is still private, then publish.
  json::Value doc = sessionDoc(*entry, /*includeDd=*/true);
  requestAnnotations().noteSession(entry->id);
  requestAnnotations().noteNodeDelta(liveNodes(*entry));
  store.publish(entry);
  metrics.countSessionCreated();
  QDD_OBS_COUNTER("service/sessions_created",
                  static_cast<double>(store.created()));
  return ok(doc, 201);
}

HttpResponse Api::listSessions() {
  store.evictExpired();
  json::Value list = json::Value::array();
  for (const auto& entry : store.list()) {
    json::Value item = json::Value::object();
    item.set("id", json::Value::string(entry->id));
    item.set("kind", json::Value::string(entry->kind));
    item.set("name", json::Value::string(entry->name));
    item.set("qubits", num(entry->qubits));
    list.push(std::move(item));
  }
  json::Value doc = json::Value::object();
  doc.set("sessions", std::move(list));
  doc.set("capacity", num(store.capacity()));
  return ok(doc);
}

HttpResponse Api::getSession(const std::string& id) {
  auto entry = require(id);
  const auto lock = lockSession(*entry);
  return ok(sessionDoc(*entry, /*includeDd=*/false));
}

HttpResponse Api::deleteSession(const std::string& id) {
  if (!store.erase(id)) {
    throw ApiError(404, "session_not_found", "no session \"" + id + "\"");
  }
  json::Value doc = json::Value::object();
  doc.set("deleted", json::Value::boolean(true));
  return ok(doc);
}

HttpResponse Api::stepSession(const std::string& id,
                              const HttpRequest& request) {
  const json::Value body = parseBody(request);
  const auto count =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   body.getNumber("count", 1)));
  auto entry = require(id);
  const auto lock = lockSession(*entry);
  requestAnnotations().noteSession(id);
  const std::int64_t nodesBefore = liveNodes(*entry);
  std::size_t applied = 0;
  if (entry->simulation) {
    for (std::size_t k = 0; k < count; ++k) {
      if (!entry->simulation->stepForward()) {
        break;
      }
      ++applied;
    }
  } else {
    const std::string side = body.getString("side", "left");
    if (side != "left" && side != "right") {
      throw ApiError(400, "invalid_request",
                     "\"side\" must be \"left\" or \"right\"");
    }
    for (std::size_t k = 0; k < count; ++k) {
      const bool stepped = side == "left"
                               ? entry->verification->stepLeft()
                               : entry->verification->stepRight();
      if (!stepped) {
        break;
      }
      ++applied;
    }
  }
  ++entry->requests;
  requestAnnotations().noteNodeDelta(liveNodes(*entry) - nodesBefore);
  json::Value doc = sessionDoc(*entry, /*includeDd=*/true);
  doc.set("stepsApplied", num(applied));
  return ok(doc);
}

HttpResponse Api::backSession(const std::string& id,
                              const HttpRequest& request) {
  const json::Value body = parseBody(request);
  const auto count =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   body.getNumber("count", 1)));
  auto entry = require(id);
  const auto lock = lockSession(*entry);
  requestAnnotations().noteSession(id);
  const std::int64_t nodesBefore = liveNodes(*entry);
  std::size_t undone = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const bool stepped = entry->simulation
                             ? entry->simulation->stepBackward()
                             : entry->verification->stepBack();
    if (!stepped) {
      break;
    }
    ++undone;
  }
  ++entry->requests;
  requestAnnotations().noteNodeDelta(liveNodes(*entry) - nodesBefore);
  json::Value doc = sessionDoc(*entry, /*includeDd=*/true);
  doc.set("stepsUndone", num(undone));
  return ok(doc);
}

HttpResponse Api::resetSession(const std::string& id) {
  auto entry = require(id);
  const auto lock = lockSession(*entry);
  requestAnnotations().noteSession(id);
  const std::int64_t nodesBefore = liveNodes(*entry);
  if (entry->simulation) {
    entry->simulation->runToStart();
  } else {
    // rewindToStart (not a stepBack loop): it also rewinds sessions whose
    // snapshot history was dropped by a spill/restore cycle
    entry->verification->rewindToStart();
  }
  ++entry->requests;
  requestAnnotations().noteNodeDelta(liveNodes(*entry) - nodesBefore);
  return ok(sessionDoc(*entry, /*includeDd=*/true));
}

HttpResponse Api::runSession(const std::string& id,
                             const HttpRequest& request) {
  const json::Value body = parseBody(request);
  const std::int64_t deadlineMs = clampDeadline(body);
  auto entry = require(id);
  const auto lock = lockSession(*entry);
  ++entry->requests;
  requestAnnotations().noteSession(id);
  const std::int64_t nodesBefore = liveNodes(*entry);

  const exec::CancellationToken token = timer.arm(deadlineMs);
  if (entry->simulation) {
    sim::SimulationSession& s = *entry->simulation;
    std::size_t steps = 0;
    // runToEnd stops after "special" operations (barriers, measurements,
    // resets); keep going until the circuit ends or the deadline fires.
    while (!s.atEnd() && !token.cancelled()) {
      steps += s.runToEnd(token.flag());
    }
    requestAnnotations().noteNodeDelta(liveNodes(*entry) - nodesBefore);
    if (!s.atEnd() && token.cancelled()) {
      metrics.countDeadlineTimeout();
      QDD_OBS_COUNTER("service/deadline_timeouts",
                      static_cast<double>(metrics.deadlineTimeouts()));
      return deadlineResponse(steps, "simulation stopped at operation " +
                                         std::to_string(s.position()) +
                                         " of " +
                                         std::to_string(s.numOperations()));
    }
    json::Value doc = sessionDoc(*entry, /*includeDd=*/true);
    doc.set("stepsApplied", num(steps));
    return ok(doc);
  }

  verify::VerificationSession& v = *entry->verification;
  const std::size_t before = v.leftPosition() + v.rightPosition();
  const verify::CheckResult result = v.runToCompletion(token.flag());
  const std::size_t steps = v.leftPosition() + v.rightPosition() - before;
  requestAnnotations().noteNodeDelta(liveNodes(*entry) - nodesBefore);
  if (result.cancelled) {
    metrics.countDeadlineTimeout();
    QDD_OBS_COUNTER("service/deadline_timeouts",
                    static_cast<double>(metrics.deadlineTimeouts()));
    return deadlineResponse(
        steps, "verification stopped at " +
                   std::to_string(v.leftPosition()) + "/" +
                   std::to_string(v.rightPosition()) + " gates applied");
  }
  json::Value doc = sessionDoc(*entry, /*includeDd=*/true);
  doc.set("stepsApplied", num(steps));
  doc.set("equivalence",
          json::Value::string(verify::toString(result.equivalence)));
  doc.set("maxNodes", num(result.maxNodes));
  return ok(doc);
}

HttpResponse Api::exportDd(const std::string& id,
                           const HttpRequest& request) {
  auto entry = require(id);
  const auto fmtIt = request.query.find("fmt");
  const std::string fmt = fmtIt == request.query.end() ? "json"
                                                       : fmtIt->second;
  const auto lock = lockSession(*entry);
  ++entry->requests;
  requestAnnotations().noteSession(id);
  HttpResponse response;
  if (fmt == "bin") {
    // the dd::Serialization v2 encoding — the exact bytes a spill file
    // holds, and re-internable into any package via deserialize*FromString
    response.contentType = "application/x-qdd";
    response.body = entry->simulation
                        ? serializeToString(entry->simulation->state())
                        : serializeToString(entry->verification->state(),
                                            entry->qubits);
    return response;
  }
  const viz::Graph graph = sessionGraph(*entry);
  if (fmt == "json") {
    const bool compact = request.query.count("compact") > 0;
    response.body = viz::JsonExporter(10, compact).toJson(graph);
  } else if (fmt == "dot") {
    response.contentType = "text/vnd.graphviz";
    response.body = viz::DotExporter(exportOptions(request)).toDot(graph);
  } else if (fmt == "svg") {
    response.contentType = "image/svg+xml";
    response.body = viz::SvgExporter(exportOptions(request)).toSvg(graph);
  } else {
    throw ApiError(400, "invalid_request",
                   "fmt must be json, dot, svg, or bin (got \"" + fmt +
                       "\")");
  }
  return response;
}

HttpResponse Api::verifyOnce(const HttpRequest& request) {
  const json::Value body = parseBody(request);
  const json::Value* l = body.find("left");
  const json::Value* r = body.find("right");
  if (l == nullptr || r == nullptr) {
    throw ApiError(400, "invalid_request",
                   "/v1/verify needs \"left\" and \"right\" specs");
  }
  const ir::QuantumComputation left = buildCircuit(*l);
  const ir::QuantumComputation right = buildCircuit(*r);
  if (left.numQubits() != right.numQubits()) {
    throw ApiError(400, "invalid_request",
                   "left and right act on different qubit counts");
  }

  exec::PortfolioOptions popts;
  popts.workers =
      static_cast<std::size_t>(body.getNumber("workers", 0));
  popts.includeSimulation = body.getBool("simulation", true);
  popts.seed = static_cast<std::uint64_t>(body.getNumber("seed", 0));
  popts.cancel = timer.arm(clampDeadline(body));

  exec::PortfolioResult result;
  try {
    result = exec::checkPortfolio(left, right, popts);
  } catch (const std::exception& e) {
    throw ApiError(400, "invalid_circuit", e.what());
  }
  if (result.cancelled) {
    metrics.countDeadlineTimeout();
    QDD_OBS_COUNTER("service/deadline_timeouts",
                    static_cast<double>(metrics.deadlineTimeouts()));
    return deadlineResponse(0, "portfolio check abandoned after " +
                                   std::to_string(result.wallMs) + " ms");
  }

  json::Value doc = json::Value::object();
  doc.set("equivalence",
          json::Value::string(verify::toString(result.result.equivalence)));
  doc.set("winner", json::Value::string(result.winner));
  doc.set("wallMs", json::Value::number(result.wallMs));
  doc.set("maxNodes", num(result.result.maxNodes));
  doc.set("gatesApplied", num(result.result.gatesApplied));
  json::Value entries = json::Value::array();
  for (const auto& entry : result.entries) {
    json::Value e = json::Value::object();
    e.set("name", json::Value::string(entry.name));
    e.set("wallMs", json::Value::number(entry.wallMs));
    e.set("conclusive", json::Value::boolean(entry.conclusive));
    e.set("equivalence",
          json::Value::string(verify::toString(entry.result.equivalence)));
    entries.push(std::move(e));
  }
  doc.set("entries", std::move(entries));
  return ok(doc);
}

HttpResponse Api::healthz() {
  const bool draining = drainingProbe && drainingProbe();
  json::Value doc = json::Value::object();
  doc.set("status", json::Value::string(draining ? "draining" : "ok"));
  doc.set("sessions", num(store.size()));
  doc.set("capacity", num(store.capacity()));
  if (store.spillEnabled()) {
    doc.set("resident", num(store.residentCount()));
    doc.set("spilled", num(store.spilledCount()));
  }
  return ok(doc);
}

mem::StatsRegistry Api::ddStats() const {
  // Retired packages plus whichever live sessions are idle right now (busy
  // ones are skipped rather than blocked behind a long-running request).
  mem::StatsRegistry dd = store.retiredStats();
  for (const auto& entry : store.list()) {
    const std::unique_lock<std::mutex> lock(entry->mutex, std::try_to_lock);
    if (lock.owns_lock() && entry->package) {
      dd.merge(entry->package->statistics());
    }
  }
  return dd;
}

HttpResponse Api::metricsDoc(const HttpRequest& request) {
  const auto fmt = request.query.find("fmt");
  if (fmt != request.query.end() && fmt->second == "prom") {
    HttpResponse response;
    response.contentType = "text/plain; version=0.0.4";
    response.body = prometheusDoc();
    return response;
  }
  if (fmt != request.query.end() && fmt->second != "json") {
    throw ApiError(400, "invalid_request",
                   "fmt must be json or prom (got \"" + fmt->second + "\")");
  }

  json::Value doc = json::Value::object();
  json::Value serviceDoc = metrics.toJson();
  serviceDoc.set("sessionsEvicted", num(store.evicted()));
  doc.set("service", std::move(serviceDoc));

  json::Value sess = json::Value::object();
  sess.set("live", num(store.size()));
  sess.set("created", num(store.created()));
  sess.set("evicted", num(store.evicted()));
  sess.set("deadlinesArmed", num(timer.armedCount()));
  sess.set("resident", num(store.residentCount()));
  sess.set("spilled", num(store.spilledCount()));
  sess.set("spilledTotal", num(store.spilledTotal()));
  sess.set("restores", num(store.restores()));
  sess.set("restoreFailures", num(store.restoreFailures()));
  sess.set("spillBytesTotal", num(store.spillBytesTotal()));
  doc.set("sessions", std::move(sess));

  json::Value inc = json::Value::object();
  inc.set("captured", num(incidentLog.captured()));
  inc.set("retained", num(incidentLog.retained()));
  doc.set("incidents", std::move(inc));

  // both writers emit valid JSON already: embed their text as is
  doc.set("dd", json::Value::raw(ddStats().toJson(/*pretty=*/false)));
  if (aggregator) {
    doc.set("obs", json::Value::raw(aggregator->toJson()));
  }
  return ok(doc);
}

std::string Api::prometheusDoc() const {
  std::string out = metrics.prometheus();

  // --- session store ---
  prom::family(out, "qdd_sessions_live", "gauge",
               "Sessions currently stored.");
  prom::sample(out, "qdd_sessions_live", "",
               static_cast<double>(store.size()));
  prom::family(out, "qdd_sessions_evicted_total", "counter",
               "Sessions evicted by the TTL sweeper.");
  prom::sample(out, "qdd_sessions_evicted_total", "",
               static_cast<double>(store.evicted()));
  prom::family(out, "qdd_sessions_capacity", "gauge",
               "Session admission cap.");
  prom::sample(out, "qdd_sessions_capacity", "",
               static_cast<double>(store.capacity()));
  prom::family(out, "qdd_deadlines_armed", "gauge",
               "Deadline timers currently armed.");
  prom::sample(out, "qdd_deadlines_armed", "",
               static_cast<double>(timer.armedCount()));

  // --- network front-end ---
  prom::family(out, "qdd_net_open_connections", "gauge",
               "Connections currently open on the network front-end.");
  prom::sample(out, "qdd_net_open_connections", "",
               openConnectionsProbe
                   ? static_cast<double>(openConnectionsProbe())
                   : 0.);

  // --- session spill tier ---
  prom::family(out, "qdd_service_sessions_resident", "gauge",
               "Sessions currently holding a live DD package.");
  prom::sample(out, "qdd_service_sessions_resident", "",
               static_cast<double>(store.residentCount()));
  prom::family(out, "qdd_service_sessions_spilled", "gauge",
               "Sessions currently spilled to disk.");
  prom::sample(out, "qdd_service_sessions_spilled", "",
               static_cast<double>(store.spilledCount()));
  prom::family(out, "qdd_service_sessions_spilled_total", "counter",
               "Sessions spilled to disk since start.");
  prom::sample(out, "qdd_service_sessions_spilled_total", "",
               static_cast<double>(store.spilledTotal()));
  prom::family(out, "qdd_service_session_restores_total", "counter",
               "Spilled sessions transparently restored on touch.");
  prom::sample(out, "qdd_service_session_restores_total", "",
               static_cast<double>(store.restores()));
  prom::family(out, "qdd_service_session_restore_failures_total", "counter",
               "Restore attempts that failed (unreadable/corrupt spill).");
  prom::sample(out, "qdd_service_session_restore_failures_total", "",
               static_cast<double>(store.restoreFailures()));
  prom::family(out, "qdd_service_spill_bytes_total", "counter",
               "Bytes written to spill files since start.");
  prom::sample(out, "qdd_service_spill_bytes_total", "",
               static_cast<double>(store.spillBytesTotal()));

  // --- per-session DD size (idle sessions only; busy ones are skipped) ---
  prom::family(out, "qdd_session_nodes", "gauge",
               "Current DD nodes of each idle session.");
  prom::family(out, "qdd_session_peak_nodes", "gauge",
               "Peak DD nodes of each idle session.");
  for (const auto& entry : store.list()) {
    const std::unique_lock<std::mutex> lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      continue;
    }
    std::size_t nodes = 0;
    std::size_t peak = 0;
    if (entry->simulation) {
      nodes = entry->simulation->currentNodes();
      peak = entry->simulation->peakNodes();
    } else if (entry->verification) {
      nodes = entry->verification->currentNodes();
      peak = entry->verification->peakNodes();
    } else {
      continue;
    }
    const std::string labels = "session=\"" + prom::escapeLabel(entry->id) +
                               "\",kind=\"" + entry->kind + "\"";
    prom::sample(out, "qdd_session_nodes", labels,
                 static_cast<double>(nodes));
    prom::sample(out, "qdd_session_peak_nodes", labels,
                 static_cast<double>(peak));
  }

  // --- DD unique/real/compute tables, apply engine, GC ---
  const mem::StatsRegistry dd = ddStats();
  prom::family(out, "qdd_dd_unique_table_entries", "gauge",
               "Nodes stored per unique table.");
  prom::sample(out, "qdd_dd_unique_table_entries", "table=\"vector\"",
               static_cast<double>(dd.vectorTable.entries));
  prom::sample(out, "qdd_dd_unique_table_entries", "table=\"matrix\"",
               static_cast<double>(dd.matrixTable.entries));
  prom::family(out, "qdd_dd_unique_table_lookups_total", "counter",
               "Unique-table lookups per table.");
  prom::sample(out, "qdd_dd_unique_table_lookups_total", "table=\"vector\"",
               static_cast<double>(dd.vectorTable.lookups));
  prom::sample(out, "qdd_dd_unique_table_lookups_total", "table=\"matrix\"",
               static_cast<double>(dd.matrixTable.lookups));
  prom::family(out, "qdd_dd_unique_table_hits_total", "counter",
               "Unique-table lookups answered by an existing node.");
  prom::sample(out, "qdd_dd_unique_table_hits_total", "table=\"vector\"",
               static_cast<double>(dd.vectorTable.hits));
  prom::sample(out, "qdd_dd_unique_table_hits_total", "table=\"matrix\"",
               static_cast<double>(dd.matrixTable.hits));
  prom::family(out, "qdd_dd_unique_table_probe_length_avg", "gauge",
               "Mean open-addressing slots inspected per unique-table "
               "lookup (1.0 = every lookup hit its home slot).");
  prom::sample(out, "qdd_dd_unique_table_probe_length_avg",
               "table=\"vector\"", dd.vectorTable.avgProbeLength());
  prom::sample(out, "qdd_dd_unique_table_probe_length_avg",
               "table=\"matrix\"", dd.matrixTable.avgProbeLength());
  prom::family(out, "qdd_dd_unique_table_probe_length_max", "gauge",
               "Longest open-addressing probe chain observed.");
  prom::sample(out, "qdd_dd_unique_table_probe_length_max",
               "table=\"vector\"",
               static_cast<double>(dd.vectorTable.longestChain));
  prom::sample(out, "qdd_dd_unique_table_probe_length_max",
               "table=\"matrix\"",
               static_cast<double>(dd.matrixTable.longestChain));
  prom::family(out, "qdd_dd_unique_table_hit_ratio", "gauge",
               "Fraction of unique-table lookups answered by an existing "
               "node.");
  prom::sample(out, "qdd_dd_unique_table_hit_ratio", "table=\"vector\"",
               dd.vectorTable.hitRatio());
  prom::sample(out, "qdd_dd_unique_table_hit_ratio", "table=\"matrix\"",
               dd.matrixTable.hitRatio());
  prom::family(out, "qdd_dd_real_table_entries", "gauge",
               "Canonical real numbers stored.");
  prom::sample(out, "qdd_dd_real_table_entries", "",
               static_cast<double>(dd.reals.entries));

  const mem::ComputeTableStats compute = dd.computeTotals();
  prom::family(out, "qdd_dd_compute_lookups_total", "counter",
               "Memoization lookups summed over all compute tables.");
  prom::sample(out, "qdd_dd_compute_lookups_total", "",
               static_cast<double>(compute.lookups));
  prom::family(out, "qdd_dd_compute_hits_total", "counter",
               "Memoization hits summed over all compute tables.");
  prom::sample(out, "qdd_dd_compute_hits_total", "",
               static_cast<double>(compute.hits));
  prom::family(out, "qdd_dd_compute_hit_ratio", "gauge",
               "Memoization hit ratio per compute table (includes the "
               "scalar weight-product memos mulWeight / mulWeight3).");
  for (const auto& table : dd.computeTables) {
    const double ratio =
        table.lookups == 0 ? 0.
                           : static_cast<double>(table.hits) /
                                 static_cast<double>(table.lookups);
    prom::sample(out, "qdd_dd_compute_hit_ratio",
                 "table=\"" + prom::escapeLabel(table.name) + "\"", ratio);
  }

  prom::family(out, "qdd_dd_apply_total", "counter",
               "Gate applications per apply-engine path.");
  prom::sample(out, "qdd_dd_apply_total", "path=\"diagonal\"",
               static_cast<double>(dd.apply.diagonal));
  prom::sample(out, "qdd_dd_apply_total", "path=\"permutation\"",
               static_cast<double>(dd.apply.permutation));
  prom::sample(out, "qdd_dd_apply_total", "path=\"generic\"",
               static_cast<double>(dd.apply.generic));
  prom::sample(out, "qdd_dd_apply_total", "path=\"fallback\"",
               static_cast<double>(dd.apply.fallback));
  prom::family(out, "qdd_dd_apply_fast_coverage", "gauge",
               "Fraction of gate applications served by a fast path.");
  prom::sample(out, "qdd_dd_apply_fast_coverage", "", dd.apply.coverage());
  prom::family(out, "qdd_dd_gc_runs_total", "counter",
               "Garbage-collection runs across all packages.");
  prom::sample(out, "qdd_dd_gc_runs_total", "",
               static_cast<double>(dd.gc.runs));

  // --- incidents ---
  prom::family(out, "qdd_incidents_total", "counter",
               "Flight-recorder incidents captured, by trigger reason.");
  for (const auto& [reason, count] : incidentLog.byReason()) {
    prom::sample(out, "qdd_incidents_total",
                 "reason=\"" + prom::escapeLabel(reason) + "\"",
                 static_cast<double>(count));
  }
  prom::family(out, "qdd_incidents_retained", "gauge",
               "Incident traces currently retrievable via /v1/incidents.");
  prom::sample(out, "qdd_incidents_retained", "",
               static_cast<double>(incidentLog.retained()));
  return out;
}

HttpResponse Api::listIncidents() { return ok(incidentLog.listJson()); }

HttpResponse Api::getIncident(const std::string& id) {
  std::string traceJson;
  if (!incidentLog.find(id, traceJson)) {
    throw ApiError(404, "incident_not_found", "no incident \"" + id + "\"");
  }
  HttpResponse response;
  response.body = std::move(traceJson);
  return response;
}

} // namespace qdd::service
