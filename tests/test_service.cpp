// Loopback protocol tests of qdd::service: session lifecycle over real
// sockets, admission control (413/429), deadline enforcement (structured
// 408 with the work stopped at a gate boundary), TTL eviction, drain mode,
// and concurrent session isolation.

#include "qdd/dd/Package.hpp"
#include "qdd/dd/Serialization.hpp"
#include "qdd/ir/Builders.hpp"
#include "qdd/obs/TraceCheck.hpp"
#include "qdd/obs/TraceContext.hpp"
#include "qdd/service/Api.hpp"
#include "qdd/service/HttpServer.hpp"
#include "qdd/service/Json.hpp"
#include "qdd/service/Router.hpp"
#include "qdd/service/SessionStore.hpp"
#include "qdd/sim/SimulationSession.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace qdd;
using service::json::Value;

// --- json unit ---------------------------------------------------------------

TEST(ServiceJsonTest, RoundTripsDocuments) {
  const std::string doc =
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "s": "x\ny", "z": null})";
  const Value v = Value::parse(doc);
  EXPECT_DOUBLE_EQ(v.find("a")->asArray()[2].asNumber(), -300.);
  EXPECT_TRUE(v.find("b")->getBool("nested", false));
  EXPECT_EQ(v.find("s")->asString(), "x\ny");
  EXPECT_TRUE(v.find("z")->isNull());
  // dump -> parse -> dump is a fixed point
  const std::string dumped = Value::parse(v.dump()).dump();
  EXPECT_EQ(dumped, v.dump());
}

TEST(ServiceJsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Value::parse(""), service::json::ParseError);
  EXPECT_THROW(Value::parse("{\"a\": 1,}"), service::json::ParseError);
  EXPECT_THROW(Value::parse("{} trailing"), service::json::ParseError);
  EXPECT_THROW(Value::parse("\"unterminated"), service::json::ParseError);
  EXPECT_THROW(Value::parse("\"bad \x01 control\""),
               service::json::ParseError);
  EXPECT_THROW(Value::parse("+1"), service::json::ParseError);
  EXPECT_THROW(Value::parse("1e999"), service::json::ParseError); // Inf
  std::string deep;
  for (int i = 0; i < 100; ++i) {
    deep += "[";
  }
  EXPECT_THROW(Value::parse(deep), service::json::ParseError);
}

TEST(ServiceJsonTest, DecodesUnicodeEscapes) {
  const Value v = Value::parse(R"("pi: π, tab: \t")");
  EXPECT_EQ(v.asString(), "pi: \xcf\x80, tab: \t");
}

TEST(ServiceJsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Value::number(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(Value::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

// --- router unit -------------------------------------------------------------

TEST(ServiceRouterTest, MatchesPatternsAndCaptures) {
  service::Router router;
  std::string seen;
  router.add("GET", "/v1/sessions/{id}/dd",
             [&seen](const service::HttpRequest&,
                     const service::PathParams& params) {
               seen = params.at("id");
               return service::HttpResponse::json(200, "{}");
             });
  service::HttpRequest request;
  request.method = "GET";
  request.path = "/v1/sessions/s42/dd";
  const auto hit = router.dispatch(request);
  EXPECT_EQ(hit.response.status, 200);
  EXPECT_EQ(hit.pattern, "/v1/sessions/{id}/dd");
  EXPECT_EQ(seen, "s42");

  request.path = "/v1/unknown";
  EXPECT_EQ(router.dispatch(request).response.status, 404);
  request.path = "/v1/sessions/s42/dd";
  request.method = "DELETE";
  EXPECT_EQ(router.dispatch(request).response.status, 405);
}

// --- loopback fixture --------------------------------------------------------

struct TestServer {
  explicit TestServer(service::ApiOptions apiOpts = {},
                      service::ServerOptions serverOpts = {}) {
    api = std::make_unique<service::Api>(apiOpts, metrics);
    api->install(router);
    server =
        std::make_unique<service::HttpServer>(serverOpts, router, metrics);
    api->setDrainingProbe([this] { return server->draining(); });
    if (serverOpts.tracing) {
      server->setIncidentLog(&api->incidents());
    }
    server->start();
  }

  [[nodiscard]] service::HttpClient client() const {
    return service::HttpClient("127.0.0.1", server->port());
  }

  service::ServiceMetrics metrics;
  service::Router router;
  std::unique_ptr<service::Api> api;
  std::unique_ptr<service::HttpServer> server;
};

Value parsed(const service::HttpClient::Result& result) {
  return Value::parse(result.body);
}

std::string errorCode(const service::HttpClient::Result& result) {
  return parsed(result).find("error")->getString("code", "");
}

// --- lifecycle ---------------------------------------------------------------

TEST(ServiceApiTest, SimulationSessionLifecycle) {
  TestServer ts;
  auto client = ts.client();

  auto created = client.request("POST", "/v1/sessions",
                                R"({"builder": {"name": "bell"}})");
  ASSERT_EQ(created.status, 201);
  Value doc = parsed(created);
  const std::string id = doc.getString("id", "");
  EXPECT_EQ(id, "s1");
  EXPECT_EQ(doc.getNumber("operations", 0), 2);
  EXPECT_EQ(doc.getNumber("position", -1), 0);
  ASSERT_NE(doc.find("dd"), nullptr);
  EXPECT_EQ(doc.find("dd")->getString("kind", ""), "vector");

  // step forward: H puts q1 in superposition -> 2 nodes along the spine
  auto stepped =
      client.request("POST", "/v1/sessions/" + id + "/step", "{}");
  ASSERT_EQ(stepped.status, 200);
  doc = parsed(stepped);
  EXPECT_EQ(doc.getNumber("position", -1), 1);
  EXPECT_EQ(doc.getNumber("stepsApplied", -1), 1);
  EXPECT_FALSE(doc.getBool("atEnd", true));

  // run to the end -> Bell state
  auto ran = client.request("POST", "/v1/sessions/" + id + "/run", "{}");
  ASSERT_EQ(ran.status, 200);
  doc = parsed(ran);
  EXPECT_TRUE(doc.getBool("atEnd", false));
  const std::string state = doc.getString("state", "");
  EXPECT_NE(state.find("|00>"), std::string::npos) << state;
  EXPECT_NE(state.find("|11>"), std::string::npos) << state;

  // step backward
  auto back = client.request("POST", "/v1/sessions/" + id + "/back", "{}");
  ASSERT_EQ(back.status, 200);
  EXPECT_EQ(parsed(back).getNumber("position", -1), 1);

  // reset
  auto reset = client.request("POST", "/v1/sessions/" + id + "/reset", "{}");
  ASSERT_EQ(reset.status, 200);
  EXPECT_EQ(parsed(reset).getNumber("position", -1), 0);

  // export formats
  auto dot =
      client.request("GET", "/v1/sessions/" + id + "/dd?fmt=dot");
  ASSERT_EQ(dot.status, 200);
  EXPECT_NE(dot.body.find("digraph dd"), std::string::npos);
  auto svg =
      client.request("GET", "/v1/sessions/" + id + "/dd?fmt=svg&colored=1");
  ASSERT_EQ(svg.status, 200);
  EXPECT_NE(svg.body.find("<svg"), std::string::npos);
  auto ddJson = client.request("GET", "/v1/sessions/" + id + "/dd");
  ASSERT_EQ(ddJson.status, 200);
  EXPECT_EQ(Value::parse(ddJson.body).getString("kind", ""), "vector");

  // delete, then 404
  EXPECT_EQ(client.request("DELETE", "/v1/sessions/" + id).status, 200);
  EXPECT_EQ(client.request("GET", "/v1/sessions/" + id).status, 404);
}

TEST(ServiceApiTest, CreatesSessionFromQasm) {
  TestServer ts;
  auto client = ts.client();
  Value body = Value::object();
  body.set("qasm", Value::string("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                                 "qreg q[2];\nh q[0];\ncx q[0],q[1];\n"));
  auto created = client.request("POST", "/v1/sessions", body.dump());
  ASSERT_EQ(created.status, 201);
  EXPECT_EQ(parsed(created).getNumber("qubits", 0), 2);
}

TEST(ServiceApiTest, VerificationSessionStepsAndRuns) {
  TestServer ts;
  auto client = ts.client();
  const std::string spec =
      R"({"kind": "verification",
          "left": {"builder": {"name": "ghz", "qubits": 4}},
          "right": {"builder": {"name": "ghz", "qubits": 4},
                    "decompose": true}})";
  auto created = client.request("POST", "/v1/sessions", spec);
  ASSERT_EQ(created.status, 201);
  const std::string id = parsed(created).getString("id", "");

  auto stepped = client.request("POST", "/v1/sessions/" + id + "/step",
                                R"({"side": "left"})");
  ASSERT_EQ(stepped.status, 200);
  EXPECT_EQ(parsed(stepped).getNumber("leftPosition", 0), 1);

  auto ran = client.request("POST", "/v1/sessions/" + id + "/run", "{}");
  ASSERT_EQ(ran.status, 200);
  Value doc = parsed(ran);
  EXPECT_TRUE(doc.getBool("finished", false));
  EXPECT_EQ(doc.getString("equivalence", ""), "equivalent");
}

// --- error paths -------------------------------------------------------------

TEST(ServiceApiTest, MalformedJsonIs400) {
  TestServer ts;
  auto client = ts.client();
  auto response =
      client.request("POST", "/v1/sessions", "{\"builder\": nope}");
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(errorCode(response), "invalid_json");

  auto badQasm = client.request("POST", "/v1/sessions",
                                R"({"qasm": "this is not qasm"})");
  EXPECT_EQ(badQasm.status, 400);
  EXPECT_EQ(errorCode(badQasm), "invalid_qasm");
}

TEST(ServiceApiTest, UnknownSessionIs404) {
  TestServer ts;
  auto client = ts.client();
  auto response = client.request("POST", "/v1/sessions/nope/step", "{}");
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(errorCode(response), "session_not_found");
}

TEST(ServiceApiTest, OversizeBodyIs413WithoutReadingIt) {
  service::ServerOptions serverOpts;
  serverOpts.maxBodyBytes = 256;
  TestServer ts({}, serverOpts);
  auto client = ts.client();
  const std::string big(4096, 'x');
  auto response = client.request("POST", "/v1/sessions",
                                 R"({"qasm": ")" + big + R"("})");
  EXPECT_EQ(response.status, 413);
  EXPECT_EQ(errorCode(response), "payload_too_large");
  EXPECT_EQ(ts.metrics.statusCount(413), 1U);
}

TEST(ServiceApiTest, OversizeCircuitIs413) {
  service::ApiOptions apiOpts;
  apiOpts.maxQubits = 10;
  TestServer ts(apiOpts);
  auto client = ts.client();
  auto response = client.request(
      "POST", "/v1/sessions", R"({"builder": {"name": "ghz", "qubits": 20}})");
  EXPECT_EQ(response.status, 413);
  EXPECT_EQ(errorCode(response), "circuit_too_large");
}

TEST(ServiceApiTest, SessionCapIs429) {
  service::ApiOptions apiOpts;
  apiOpts.maxSessions = 2;
  TestServer ts(apiOpts);
  auto client = ts.client();
  const std::string spec = R"({"builder": {"name": "bell"}})";
  EXPECT_EQ(client.request("POST", "/v1/sessions", spec).status, 201);
  EXPECT_EQ(client.request("POST", "/v1/sessions", spec).status, 201);
  auto third = client.request("POST", "/v1/sessions", spec);
  EXPECT_EQ(third.status, 429);
  EXPECT_EQ(errorCode(third), "too_many_sessions");
  // freeing a slot lifts the limit again
  EXPECT_EQ(client.request("DELETE", "/v1/sessions/s1").status, 200);
  EXPECT_EQ(client.request("POST", "/v1/sessions", spec).status, 201);
}

TEST(ServiceApiTest, RawGarbageIs400) {
  TestServer ts;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string garbage = "THIS IS NOT HTTP\r\n\r\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  char buf[256];
  const ssize_t got = ::recv(fd, buf, sizeof(buf) - 1, 0);
  ::close(fd);
  ASSERT_GT(got, 0);
  buf[got] = '\0';
  EXPECT_NE(std::string(buf).find("400 Bad Request"), std::string::npos);
}

// --- TTL eviction ------------------------------------------------------------

TEST(ServiceApiTest, IdleSessionsAreEvicted) {
  service::ApiOptions apiOpts;
  apiOpts.sessionTtlMs = 1;
  TestServer ts(apiOpts);
  auto client = ts.client();
  auto created = client.request("POST", "/v1/sessions",
                                R"({"builder": {"name": "bell"}})");
  ASSERT_EQ(created.status, 201);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // listing triggers eviction of the idle session
  auto list = client.request("GET", "/v1/sessions");
  ASSERT_EQ(list.status, 200);
  EXPECT_TRUE(parsed(list).find("sessions")->asArray().empty());
  EXPECT_EQ(ts.api->sessions().evicted(), 1U);
  EXPECT_EQ(client.request("GET", "/v1/sessions/s1").status, 404);
  // both /metrics formats report the store's count
  EXPECT_EQ(parsed(client.request("GET", "/metrics"))
                .find("service")
                ->getNumber("sessionsEvicted", -1),
            1.);
  EXPECT_NE(client.request("GET", "/metrics?fmt=prom")
                .body.find("\nqdd_sessions_evicted_total 1\n"),
            std::string::npos);
}

// --- deadlines ---------------------------------------------------------------

TEST(ServiceApiTest, ExpiredDeadlineIs408BeforeAnyGate) {
  TestServer ts;
  auto client = ts.client();
  auto created = client.request(
      "POST", "/v1/sessions", R"({"builder": {"name": "qft", "qubits": 8}})");
  ASSERT_EQ(created.status, 201);
  const std::string id = parsed(created).getString("id", "");

  // deadlineMs = 0 expires before the first gate boundary poll
  auto ran = client.request("POST", "/v1/sessions/" + id + "/run",
                            R"({"deadlineMs": 0})");
  EXPECT_EQ(ran.status, 408);
  Value doc = parsed(ran);
  EXPECT_EQ(doc.find("error")->getString("code", ""), "deadline_exceeded");
  EXPECT_EQ(doc.getNumber("stepsApplied", -1), 0);
  EXPECT_EQ(ts.metrics.deadlineTimeouts(), 1U);

  // the session survives the timeout and finishes on a second run
  auto again = client.request("POST", "/v1/sessions/" + id + "/run", "{}");
  ASSERT_EQ(again.status, 200);
  EXPECT_TRUE(parsed(again).getBool("atEnd", false));
}

TEST(ServiceApiTest, MidRunDeadlineStopsAtGateBoundary) {
  TestServer ts;
  auto client = ts.client();
  // ~34k cheap operations: cannot finish inside a 3 ms deadline even at
  // sub-microsecond per gate, so the cancellation deterministically lands
  // mid-run at a gate boundary.
  auto created = client.request(
      "POST", "/v1/sessions",
      R"({"builder": {"name": "qft", "qubits": 12, "repeat": 400}})");
  ASSERT_EQ(created.status, 201);
  Value doc = parsed(created);
  const std::string id = doc.getString("id", "");
  const double operations = doc.getNumber("operations", 0);
  ASSERT_GT(operations, 30000);

  auto ran = client.request("POST", "/v1/sessions/" + id + "/run",
                            R"({"deadlineMs": 3})");
  ASSERT_EQ(ran.status, 408);
  EXPECT_EQ(parsed(ran).find("error")->getString("code", ""),
            "deadline_exceeded");
  EXPECT_EQ(ts.metrics.deadlineTimeouts(), 1U);

  // the applied prefix is still inspectable and the session still works
  auto info = client.request("GET", "/v1/sessions/" + id);
  ASSERT_EQ(info.status, 200);
  const double position = parsed(info).getNumber("position", -1);
  EXPECT_LT(position, operations);
  auto step = client.request("POST", "/v1/sessions/" + id + "/step", "{}");
  EXPECT_EQ(step.status, 200);
}

TEST(ServiceApiTest, VerifyEndpointHonorsDeadline) {
  TestServer ts;
  auto client = ts.client();
  const std::string spec =
      R"({"left": {"builder": {"name": "qft", "qubits": 10, "repeat": 40}},
          "right": {"builder": {"name": "qft", "qubits": 10, "repeat": 40}},
          "simulation": false,
          "deadlineMs": 0})";
  auto response = client.request("POST", "/v1/verify", spec);
  EXPECT_EQ(response.status, 408);
  EXPECT_EQ(errorCode(response), "deadline_exceeded");
  EXPECT_GE(ts.metrics.deadlineTimeouts(), 1U);
}

TEST(ServiceApiTest, VerifyEndpointDecidesEquivalence) {
  TestServer ts;
  auto client = ts.client();
  auto equal = client.request(
      "POST", "/v1/verify",
      R"({"left": {"builder": {"name": "ghz", "qubits": 4}},
          "right": {"builder": {"name": "ghz", "qubits": 4},
                    "decompose": true}})");
  ASSERT_EQ(equal.status, 200);
  EXPECT_EQ(parsed(equal).getString("equivalence", ""), "equivalent");
  EXPECT_FALSE(parsed(equal).find("entries")->asArray().empty());

  auto unequal = client.request(
      "POST", "/v1/verify",
      R"({"left": {"builder": {"name": "ghz", "qubits": 3}},
          "right": {"builder": {"name": "qft", "qubits": 3}}})");
  ASSERT_EQ(unequal.status, 200);
  EXPECT_EQ(parsed(unequal).getString("equivalence", ""), "not equivalent");
}

// --- health / metrics --------------------------------------------------------

TEST(ServiceApiTest, HealthAndMetricsReport) {
  TestServer ts;
  auto client = ts.client();
  auto health = client.request("GET", "/healthz");
  ASSERT_EQ(health.status, 200);
  EXPECT_EQ(parsed(health).getString("status", ""), "ok");

  client.request("POST", "/v1/sessions", R"({"builder": {"name": "bell"}})");
  client.request("POST", "/v1/sessions/s1/run", "{}");

  auto metrics = client.request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  Value doc = parsed(metrics);
  const Value* svc = doc.find("service");
  ASSERT_NE(svc, nullptr);
  EXPECT_GE(svc->getNumber("requests", 0), 3.);
  EXPECT_EQ(svc->find("byStatus")->getNumber("201", 0), 1.);
  const Value* routes = svc->find("routes");
  ASSERT_NE(routes, nullptr);
  EXPECT_EQ(routes->find("POST /v1/sessions")->getNumber("count", 0), 1.);
  // DD table stats of the live session are folded in
  ASSERT_NE(doc.find("dd"), nullptr);
  EXPECT_TRUE(doc.find("dd")->isObject());
  EXPECT_FALSE(doc.find("dd")->asObject().empty());
  EXPECT_EQ(doc.find("sessions")->getNumber("live", -1), 1.);
}

// --- drain -------------------------------------------------------------------

TEST(ServiceApiTest, DrainRejectsNewRequestsWith503) {
  TestServer ts;
  auto client = ts.client();
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
  ts.server->drain();
  auto rejected = client.request("GET", "/healthz");
  EXPECT_EQ(rejected.status, 503);
  EXPECT_EQ(errorCode(rejected), "draining");
  EXPECT_EQ(ts.metrics.drainRejected(), 1U);
}

// --- concurrency -------------------------------------------------------------

TEST(ServiceApiTest, ConcurrentSessionsStayIsolated) {
  service::ServerOptions serverOpts;
  serverOpts.workers = 4;
  TestServer ts({}, serverOpts);

  constexpr std::size_t CLIENTS = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(CLIENTS);
  for (std::size_t c = 0; c < CLIENTS; ++c) {
    threads.emplace_back([&ts, &failures, c] {
      try {
        auto client = ts.client();
        // distinct circuit per client: GHZ on 3 + c qubits
        const std::string qubits = std::to_string(3 + c);
        auto created = client.request(
            "POST", "/v1/sessions",
            R"({"builder": {"name": "ghz", "qubits": )" + qubits + "}}");
        if (created.status != 201) {
          failures[c] = "create: " + created.body;
          return;
        }
        const std::string id = parsed(created).getString("id", "");
        auto ran =
            client.request("POST", "/v1/sessions/" + id + "/run", "{}");
        if (ran.status != 200) {
          failures[c] = "run: " + ran.body;
          return;
        }
        const Value doc = parsed(ran);
        // GHZ on n qubits -> the state contains the all-ones ket; a wrong
        // qubit count (cross-session leakage) would change its width
        const std::string ones = "|" + std::string(3 + c, '1') + ">";
        if (doc.getString("state", "").find(ones) == std::string::npos) {
          failures[c] = "state: " + ran.body;
          return;
        }
        if (doc.getNumber("nodes", 0) <= 0.) {
          failures[c] = "nodes: " + ran.body;
          return;
        }
        if (!doc.getBool("atEnd", false)) {
          failures[c] = "not at end: " + ran.body;
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (std::size_t c = 0; c < CLIENTS; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  EXPECT_EQ(ts.api->sessions().size(), CLIENTS);
  EXPECT_EQ(ts.metrics.statusCount(201), CLIENTS);
}

// --- request tracing & incidents ---------------------------------------------

TEST(ServiceTracingTest, TraceparentIsEchoedWithFreshSpanId) {
  TestServer ts;
  auto client = ts.client();
  const std::string inbound =
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  auto response =
      client.request("GET", "/healthz", "", {{"traceparent", inbound}});
  ASSERT_EQ(response.status, 200);
  const auto tp = response.headers.find("traceparent");
  ASSERT_NE(tp, response.headers.end());
  obs::TraceContext ctx;
  ASSERT_TRUE(obs::TraceContext::parseTraceparent(tp->second, ctx));
  // same trace id as the caller's, but a fresh span id for this hop
  EXPECT_EQ(ctx.traceIdHex(), "0af7651916cd43dd8448eb211c80319c");
  EXPECT_NE(ctx.spanIdHex(), "b7ad6b7169203331");
}

TEST(ServiceTracingTest, MissingOrMalformedTraceparentStartsNewTrace) {
  TestServer ts;
  auto client = ts.client();
  auto bare = client.request("GET", "/healthz");
  const auto tp1 = bare.headers.find("traceparent");
  ASSERT_NE(tp1, bare.headers.end());
  obs::TraceContext ctx;
  ASSERT_TRUE(obs::TraceContext::parseTraceparent(tp1->second, ctx));
  EXPECT_TRUE(ctx.valid());

  auto garbled =
      client.request("GET", "/healthz", "", {{"traceparent", "garbage"}});
  const auto tp2 = garbled.headers.find("traceparent");
  ASSERT_NE(tp2, garbled.headers.end());
  obs::TraceContext ctx2;
  ASSERT_TRUE(obs::TraceContext::parseTraceparent(tp2->second, ctx2));
  EXPECT_TRUE(ctx2.valid());
  EXPECT_NE(ctx2.traceIdHex(), ctx.traceIdHex());
}

TEST(ServiceTracingTest, NoTracingMeansNoTraceparentHeader) {
  service::ServerOptions serverOpts;
  serverOpts.tracing = false;
  TestServer ts({}, serverOpts);
  auto client = ts.client();
  auto response = client.request("GET", "/healthz");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.count("traceparent"), 0U);
  auto incidents = client.request("GET", "/v1/incidents");
  ASSERT_EQ(incidents.status, 200);
  EXPECT_EQ(parsed(incidents).getNumber("captured", -1), 0.);
}

TEST(ServiceTracingTest, DeadlineRunProducesValidatableIncident) {
  TestServer ts;
  auto client = ts.client();
  auto created = client.request(
      "POST", "/v1/sessions",
      R"({"builder": {"name": "qft", "qubits": 12, "repeat": 400}})");
  ASSERT_EQ(created.status, 201);
  const std::string id = parsed(created).getString("id", "");

  auto ran = client.request("POST", "/v1/sessions/" + id + "/run",
                            R"({"deadlineMs": 3})");
  ASSERT_EQ(ran.status, 408);
  const auto tp = ran.headers.find("traceparent");
  ASSERT_NE(tp, ran.headers.end());
  obs::TraceContext ctx;
  ASSERT_TRUE(obs::TraceContext::parseTraceparent(tp->second, ctx));

  auto list = client.request("GET", "/v1/incidents");
  ASSERT_EQ(list.status, 200);
  const Value listDoc = parsed(list);
  EXPECT_GE(listDoc.getNumber("captured", 0), 1.);
  const auto& items = listDoc.find("incidents")->asArray();
  ASSERT_FALSE(items.empty());
  // newest first; the deadline incident carries the run's trace id
  const Value& newest = items.front();
  EXPECT_EQ(newest.getString("reason", ""), "deadline");
  EXPECT_EQ(newest.getNumber("status", 0), 408.);
  EXPECT_EQ(newest.getString("traceId", ""), ctx.traceIdHex());
  EXPECT_EQ(newest.getString("session", ""), id);
  EXPECT_EQ(newest.getString("route", ""), "POST /v1/sessions/{id}/run");
  EXPECT_GE(newest.getNumber("spans", 0), 1.);

  const std::string incId = newest.getString("id", "");
  auto dump = client.request("GET", "/v1/incidents/" + incId);
  ASSERT_EQ(dump.status, 200);
  const auto check = obs::validateIncidentTrace(dump.body);
  EXPECT_TRUE(check.valid) << check.error;
  EXPECT_EQ(Value::parse(dump.body).getString("traceId", ""),
            ctx.traceIdHex());

  EXPECT_EQ(client.request("GET", "/v1/incidents/inc-999").status, 404);
}

TEST(ServiceTracingTest, SlowRequestsAreCapturedAndRetentionIsBounded) {
  service::ApiOptions apiOpts;
  apiOpts.maxIncidents = 2;
  service::ServerOptions serverOpts;
  serverOpts.slowRequestMs = 0.0001; // everything is "slow"
  TestServer ts(apiOpts, serverOpts);
  auto client = ts.client();
  for (int k = 0; k < 5; ++k) {
    ASSERT_EQ(client.request("GET", "/healthz").status, 200);
  }
  auto list = client.request("GET", "/v1/incidents");
  ASSERT_EQ(list.status, 200);
  const Value doc = parsed(list);
  EXPECT_GE(doc.getNumber("captured", 0), 5.);
  EXPECT_LE(doc.getNumber("retained", 99), 2.);
  EXPECT_LE(doc.find("incidents")->asArray().size(), 2U);
  for (const Value& item : doc.find("incidents")->asArray()) {
    EXPECT_EQ(item.getString("reason", ""), "slow");
  }
}

TEST(ServiceTracingTest, PrometheusExpositionIsServed) {
  TestServer ts;
  auto client = ts.client();
  client.request("POST", "/v1/sessions", R"({"builder": {"name": "bell"}})");
  client.request("POST", "/v1/sessions/s1/run", "{}");

  auto prom = client.request("GET", "/metrics?fmt=prom");
  ASSERT_EQ(prom.status, 200);
  const auto ct = prom.headers.find("content-type");
  ASSERT_NE(ct, prom.headers.end());
  EXPECT_NE(ct->second.find("text/plain"), std::string::npos);
  const std::string& body = prom.body;
  for (const char* needle :
       {"# TYPE qdd_http_requests_total counter",
        "# TYPE qdd_http_request_duration_seconds histogram",
        "qdd_http_request_duration_seconds_bucket{le=\"+Inf\"}",
        "qdd_http_request_duration_seconds_sum",
        "qdd_http_request_duration_seconds_count",
        "qdd_http_responses_total{status=\"201\"} 1",
        "qdd_http_route_requests_total{route=\"POST /v1/sessions\"} 1",
        "# TYPE qdd_sessions_live gauge", "qdd_sessions_live 1",
        "# TYPE qdd_dd_unique_table_entries gauge",
        "qdd_session_nodes{session=\"s1\",kind=\"simulation\"}",
        "# TYPE qdd_incidents_total counter",
        "# TYPE qdd_dd_apply_total counter"}) {
    EXPECT_NE(body.find(needle), std::string::npos)
        << "missing: " << needle << "\nin:\n"
        << body;
  }
  // the JSON document still works, and an unknown fmt is rejected
  EXPECT_EQ(client.request("GET", "/metrics?fmt=json").status, 200);
  EXPECT_EQ(client.request("GET", "/metrics?fmt=xml").status, 400);
}

TEST(ServiceTracingTest, MetricsJsonServesHistogramPercentiles) {
  TestServer ts;
  auto client = ts.client();
  for (int k = 0; k < 20; ++k) {
    ASSERT_EQ(client.request("GET", "/healthz").status, 200);
  }
  auto metrics = client.request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  const Value doc = parsed(metrics);
  const Value* route =
      doc.find("service")->find("routes")->find("GET /healthz");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->getNumber("count", 0), 20.);
  const double p50 = route->getNumber("p50Ms", -1);
  const double p95 = route->getNumber("p95Ms", -1);
  const double maxMs = route->getNumber("maxMs", -1);
  EXPECT_GT(p50, 0.);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, maxMs * 1.0001);
}

TEST(ServiceTracingTest, AccessLogWritesOneJsonLinePerRequest) {
  const std::string path =
      ::testing::TempDir() + "qdd_access_log_test.jsonl";
  ::unlink(path.c_str());
  {
    service::ServerOptions serverOpts;
    serverOpts.accessLogPath = path;
    TestServer ts({}, serverOpts);
    auto client = ts.client();
    auto created = client.request("POST", "/v1/sessions",
                                  R"({"builder": {"name": "bell"}})");
    ASSERT_EQ(created.status, 201);
    ASSERT_EQ(
        client.request("POST", "/v1/sessions/s1/run", "{}").status, 200);
    ts.server->stop();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<Value> lines;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(Value::parse(line));
    }
  }
  ASSERT_EQ(lines.size(), 2U);
  const Value& create = lines[0];
  EXPECT_EQ(create.getString("method", ""), "POST");
  EXPECT_EQ(create.getString("route", ""), "POST /v1/sessions");
  EXPECT_EQ(create.getNumber("status", 0), 201.);
  EXPECT_EQ(create.getString("session", ""), "s1");
  EXPECT_EQ(create.getString("traceId", "").size(), 32U);
  EXPECT_GT(create.getNumber("ts", 0), 0.);
  EXPECT_GE(create.getNumber("latencyMs", -1), 0.);
  EXPECT_GT(create.getNumber("bytesOut", 0), 0.);
  // creating the Bell session materializes DD nodes
  EXPECT_GT(create.getNumber("ddNodeDelta", -1), 0.);
  const Value& run = lines[1];
  EXPECT_EQ(run.getString("route", ""), "POST /v1/sessions/{id}/run");
  EXPECT_EQ(run.getString("session", ""), "s1");
  // both lines belong to different traces
  EXPECT_NE(run.getString("traceId", ""), create.getString("traceId", ""));
  ::unlink(path.c_str());
}

// --- network core (reactor) --------------------------------------------------

/// Raw TCP connect to the test server, with a receive timeout so a test
/// can never hang on a dead connection.
int rawConnect(std::uint16_t port, int recvTimeoutSec = 10) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = recvTimeoutSec;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(ServiceNetTest, ReactorServesSessionLifecycle) {
  service::ServerOptions serverOpts;
  serverOpts.net = service::NetMode::Epoll; // poll fallback off-Linux
  TestServer ts({}, serverOpts);
  const std::string mode = ts.server->netName();
  EXPECT_TRUE(mode == "epoll" || mode == "poll") << mode;
  auto client = ts.client();
  auto created = client.request("POST", "/v1/sessions",
                                R"({"builder": {"name": "bell"}})");
  ASSERT_EQ(created.status, 201);
  EXPECT_EQ(client.request("POST", "/v1/sessions/s1/step", "{}").status, 200);
  auto ran = client.request("POST", "/v1/sessions/s1/run", "{}");
  ASSERT_EQ(ran.status, 200);
  EXPECT_TRUE(parsed(ran).getBool("atEnd", false));
  // keep-alive: the whole lifecycle rode one reactor connection
  EXPECT_EQ(ts.server->openConnections(), 1U);
  EXPECT_EQ(client.request("DELETE", "/v1/sessions/s1").status, 200);
}

TEST(ServiceNetTest, SilentClientDoesNotBlockOtherRequests) {
  // One pool worker: a silent client must not pin it. The reactor only
  // hands *complete* requests to the pool, so the worker stays free for
  // everyone else.
  service::ServerOptions serverOpts;
  serverOpts.net = service::NetMode::Epoll;
  serverOpts.workers = 1;
  TestServer ts({}, serverOpts);

  // connection 1: opens, sends a request *prefix*, then goes silent
  const int silent = rawConnect(ts.server->port());
  const std::string partial =
      "POST /v1/sessions HTTP/1.1\r\nContent-Length: 512\r\n\r\n{\"buil";
  ASSERT_EQ(::send(silent, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));

  // connection 2: a full lifecycle must complete while 1 stays parked
  const auto t0 = std::chrono::steady_clock::now();
  auto client = ts.client();
  auto created = client.request("POST", "/v1/sessions",
                                R"({"builder": {"name": "bell"}})");
  ASSERT_EQ(created.status, 201);
  ASSERT_EQ(client.request("POST", "/v1/sessions/s1/run", "{}").status, 200);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // generous bound: failure mode is waiting out a read timeout (seconds)
  EXPECT_LT(elapsed.count(), 5000);
  ::close(silent);
}

TEST(ServiceNetTest, IdleTimeoutClosesSilentConnections) {
  service::ServerOptions serverOpts;
  serverOpts.net = service::NetMode::Epoll;
  serverOpts.idleTimeoutMs = 100;
  TestServer ts({}, serverOpts);
  const int fd = rawConnect(ts.server->port());
  // never send a byte; the reactor's idle sweep must close us (EOF)
  char buf[16];
  const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
  ::close(fd);
  EXPECT_EQ(got, 0);
  EXPECT_GE(ts.server->idleClosedConnections(), 1U);
  EXPECT_EQ(ts.server->openConnections(), 0U);
}

// --- binary DD export --------------------------------------------------------

TEST(ServiceApiTest, BinaryDdExportRoundTripsAgainstJson) {
  TestServer ts;
  auto client = ts.client();
  auto created = client.request("POST", "/v1/sessions",
                                R"({"builder": {"name": "ghz", "qubits": 3}})");
  ASSERT_EQ(created.status, 201);
  auto ran = client.request("POST", "/v1/sessions/s1/run", "{}");
  ASSERT_EQ(ran.status, 200);
  const auto nodes = static_cast<std::size_t>(parsed(ran).getNumber("nodes", 0));
  ASSERT_GT(nodes, 0U);

  auto bin = client.request("GET", "/v1/sessions/s1/dd?fmt=bin");
  ASSERT_EQ(bin.status, 200);
  EXPECT_EQ(bin.headers.at("content-type"), "application/x-qdd");
  EXPECT_EQ(bin.headers.at("content-length"),
            std::to_string(bin.body.size()));

  // the payload re-interns into a fresh package as the same state
  Package pkg(3);
  const vEdge root = deserializeVectorFromString(pkg, bin.body);
  EXPECT_EQ(Package::size(root), nodes);
  EXPECT_EQ(serializeToString(root), bin.body); // byte-stable round trip

  // and agrees with the JSON exporter's view of the same DD
  auto jsonExport = client.request("GET", "/v1/sessions/s1/dd?fmt=json");
  ASSERT_EQ(jsonExport.status, 200);
  const Value graph = parsed(jsonExport);
  ASSERT_NE(graph.find("nodes"), nullptr);
  // both exporters walk the same DD: decision-node counts agree
  EXPECT_EQ(graph.find("nodes")->asArray().size(), nodes);
}

// --- spill tier --------------------------------------------------------------

/// A spill directory under the gtest temp dir, removed with its contents
/// when the test ends. Declare it before the server or store that spills
/// into it, so it outlives them.
struct SpillDir {
  explicit SpillDir(const char* tag)
      : path(::testing::TempDir() + "qdd_spill_" + tag + "_" +
             std::to_string(::getpid())) {
    std::filesystem::create_directories(path);
  }
  ~SpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  const std::string path;
};

TEST(ServiceSpillTest, MissingSpillDirectoryIsRejected) {
  // Every spill into a missing directory would fail and keep its session
  // resident, so the store refuses the configuration up front.
  const std::string missing = ::testing::TempDir() + "qdd_spill_missing_" +
                              std::to_string(::getpid());
  ::rmdir(missing.c_str());
  service::SessionStoreOptions opts;
  opts.spillDir = missing;
  EXPECT_THROW(service::SessionStore store(opts), std::invalid_argument);
  // a regular file is no spill directory either
  const std::string file = missing + ".file";
  std::ofstream(file) << "x";
  opts.spillDir = file;
  EXPECT_THROW(service::SessionStore store(opts), std::invalid_argument);
  ::unlink(file.c_str());
  // the API (and `qdd-tool serve` with it) fails before serving anything
  service::ServiceMetrics metrics;
  service::ApiOptions apiOpts;
  apiOpts.spillDir = missing;
  EXPECT_THROW(service::Api api(apiOpts, metrics), std::invalid_argument);
  const SpillDir usable("usable");
  opts.spillDir = usable.path;
  EXPECT_NO_THROW(service::SessionStore store(opts));
}

TEST(ServiceSpillTest, SpilledSessionRestoresIdentically) {
  const SpillDir spill("restore");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  TestServer ts(apiOpts);
  auto client = ts.client();
  auto created = client.request("POST", "/v1/sessions",
                                R"({"builder": {"name": "ghz", "qubits": 4}})");
  ASSERT_EQ(created.status, 201);
  ASSERT_EQ(client.request("POST", "/v1/sessions/s1/step", "{}").status, 200);
  ASSERT_EQ(client.request("POST", "/v1/sessions/s1/step", "{}").status, 200);
  const auto before = client.request("GET", "/v1/sessions/s1");
  ASSERT_EQ(before.status, 200);
  const std::string binBefore =
      client.request("GET", "/v1/sessions/s1/dd?fmt=bin").body;

  auto& store = ts.api->sessions();
  ASSERT_TRUE(store.spillNow("s1"));
  EXPECT_EQ(store.spilledCount(), 1U);
  EXPECT_EQ(store.residentCount(), 0U);
  EXPECT_EQ(store.spilledTotal(), 1U);
  EXPECT_GT(store.spillBytesTotal(), 0U);

  // the next touch transparently restores: same position, same state bytes
  // (deserialization re-interns through the normalizing constructors, so
  // the restored root serializes to the identical canonical form)
  const auto after = client.request("GET", "/v1/sessions/s1");
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(parsed(after).getNumber("position", -1),
            parsed(before).getNumber("position", -2));
  EXPECT_EQ(parsed(after).getNumber("nodes", -1),
            parsed(before).getNumber("nodes", -2));
  EXPECT_EQ(client.request("GET", "/v1/sessions/s1/dd?fmt=bin").body,
            binBefore);
  EXPECT_EQ(store.restores(), 1U);
  EXPECT_EQ(store.spilledCount(), 0U);
  EXPECT_EQ(store.restoreFailures(), 0U);

  // the restored session keeps working: step to the end, then rewind
  auto ran = client.request("POST", "/v1/sessions/s1/run", "{}");
  ASSERT_EQ(ran.status, 200);
  EXPECT_TRUE(parsed(ran).getBool("atEnd", false));
  EXPECT_EQ(client.request("POST", "/v1/sessions/s1/reset", "{}").status,
            200);
}

TEST(ServiceSpillTest, VerificationSessionSurvivesSpill) {
  const SpillDir spill("verif");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  TestServer ts(apiOpts);
  auto client = ts.client();
  const std::string spec =
      R"({"kind": "verification",
          "left": {"builder": {"name": "ghz", "qubits": 3}},
          "right": {"builder": {"name": "ghz", "qubits": 3}}})";
  auto created = client.request("POST", "/v1/sessions", spec);
  ASSERT_EQ(created.status, 201);
  ASSERT_EQ(client.request("POST", "/v1/sessions/s1/step",
                           R"({"side": "left"})")
                .status,
            200);
  ASSERT_TRUE(ts.api->sessions().spillNow("s1"));
  auto ran = client.request("POST", "/v1/sessions/s1/run", "{}");
  ASSERT_EQ(ran.status, 200);
  EXPECT_EQ(parsed(ran).getString("equivalence", ""), "equivalent");
  EXPECT_EQ(ts.api->sessions().restores(), 1U);
}

TEST(ServiceSpillTest, ConcurrentTouchesRestoreOnce) {
  const SpillDir spill("concurrent");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  service::ServerOptions serverOpts;
  serverOpts.workers = 4;
  TestServer ts(apiOpts, serverOpts);
  auto setup = ts.client();
  ASSERT_EQ(setup
                .request("POST", "/v1/sessions",
                         R"({"builder": {"name": "ghz", "qubits": 4}})")
                .status,
            201);
  ASSERT_EQ(setup.request("POST", "/v1/sessions/s1/run", "{}").status, 200);
  ASSERT_TRUE(ts.api->sessions().spillNow("s1"));

  constexpr std::size_t TOUCHES = 8;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> ok{0};
  for (std::size_t t = 0; t < TOUCHES; ++t) {
    threads.emplace_back([&ts, &ok] {
      try {
        auto client = ts.client();
        if (client.request("GET", "/v1/sessions/s1/dd?fmt=bin").status ==
            200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ok.load(), TOUCHES);
  // the entry mutex is the restore-once guard: 8 racing touches, 1 restore
  EXPECT_EQ(ts.api->sessions().restores(), 1U);
  EXPECT_EQ(ts.api->sessions().restoreFailures(), 0U);
}

TEST(ServiceSpillTest, BudgetSpillsColdestSessions) {
  const SpillDir spill("budget");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  apiOpts.maxSessions = 32;
  apiOpts.maxResidentSessions = 2;
  TestServer ts(apiOpts);
  auto client = ts.client();
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(client
                  .request("POST", "/v1/sessions",
                           R"({"builder": {"name": "bell"}})")
                  .status,
              201);
  }
  auto& store = ts.api->sessions();
  EXPECT_EQ(store.size(), 6U);
  EXPECT_LE(store.residentCount(), 2U);
  EXPECT_GE(store.spilledCount(), 4U);
  // every session — spilled or not — still answers
  for (int i = 1; i <= 6; ++i) {
    const std::string id = "s" + std::to_string(i);
    EXPECT_EQ(client.request("GET", "/v1/sessions/" + id).status, 200)
        << id;
  }
}

/// One request through Router::dispatch, no sockets.
service::HttpResponse dispatch(const service::Router& router,
                               const std::string& method,
                               const std::string& path,
                               const std::string& body = "") {
  service::HttpRequest request;
  request.method = method;
  request.target = path;
  request.path = path;
  request.body = body;
  return router.dispatch(request).response;
}

/// The basis state a one-qubit session document shows: "|0>" or "|1>",
/// with or without an amplitude in front.
char measuredBit(const service::HttpResponse& response) {
  const std::string state = Value::parse(response.body).getString("state", "");
  return state.size() >= 2 ? state[state.size() - 2] : '?';
}

TEST(ServiceSpillTest, RestoredSessionKeepsItsRngStream) {
  // Eight measurements of |+>, each made right after the session came back
  // from disk. The outcomes must be the ones a session that never left
  // memory draws from the same seed.
  std::string qasm = R"(OPENQASM 2.0;\ninclude \"qelib1.inc\";\n)"
                     R"(qreg q[1];\ncreg c[8];\n)";
  for (int k = 0; k < 8; ++k) {
    qasm += "h q[0];\\nmeasure q[0] -> c[" + std::to_string(k) + "];\\n";
  }
  const std::string spec = R"({"seed": 1, "qasm": ")" + qasm + "\"}";

  const auto outcomes = [&spec](service::Api& api, bool spillEveryMeasure) {
    service::Router router;
    api.install(router);
    EXPECT_EQ(dispatch(router, "POST", "/v1/sessions", spec).status, 201);
    EXPECT_EQ(dispatch(router, "POST", "/v1/sessions",
                       R"({"builder": {"name": "bell"}})")
                  .status,
              201);
    std::string bits;
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(dispatch(router, "POST", "/v1/sessions/s1/step").status, 200);
      const auto measured = dispatch(router, "POST", "/v1/sessions/s1/step");
      EXPECT_EQ(measured.status, 200);
      bits += measuredBit(measured);
      // touching the other session restores it, and the budget of one
      // resident session spills s1
      EXPECT_EQ(dispatch(router, "GET", "/v1/sessions/s2").status, 200);
      if (spillEveryMeasure) {
        EXPECT_TRUE(api.sessions().find("s1")->spilled.load());
      }
    }
    return bits;
  };

  service::ServiceMetrics residentMetrics;
  service::Api resident(service::ApiOptions{}, residentMetrics);
  const std::string expected = outcomes(resident, false);

  const SpillDir spill("rng");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  apiOpts.maxResidentSessions = 1;
  service::ServiceMetrics spilledMetrics;
  service::Api spilled(apiOpts, spilledMetrics);
  const std::string got = outcomes(spilled, true);

  EXPECT_EQ(got, expected);
  EXPECT_NE(expected.find('0'), std::string::npos) << expected;
  EXPECT_NE(expected.find('1'), std::string::npos) << expected;
  EXPECT_GE(spilled.sessions().restores(), 8U);
}

TEST(ServiceSpillTest, RestoreKeepsTheResidentBudget) {
  const SpillDir spill("rebudget");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  apiOpts.maxResidentSessions = 2;
  service::ServiceMetrics metrics;
  service::Api api(apiOpts, metrics);
  service::Router router;
  api.install(router);
  auto& store = api.sessions();

  // four GHZ-3 sessions, each one gate in: what each answers while resident
  std::vector<std::string> ids;
  std::vector<Value> residentDocs;
  std::vector<std::string> residentDds;
  for (int k = 0; k < 4; ++k) {
    const auto created = dispatch(router, "POST", "/v1/sessions",
                                  R"({"builder": {"name": "ghz", "qubits": 3}})");
    ASSERT_EQ(created.status, 201);
    ids.push_back(Value::parse(created.body).getString("id", ""));
    const std::string path = "/v1/sessions/" + ids.back();
    ASSERT_EQ(dispatch(router, "POST", path + "/step").status, 200);
    residentDocs.push_back(Value::parse(dispatch(router, "GET", path).body));
    residentDds.push_back(dispatch(router, "GET", path + "/dd?fmt=json").body);
    EXPECT_LE(store.residentCount(), 2U);
  }

  // touch every spilled session in turn, three rounds over the four
  std::size_t touched = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (!store.find(ids[k])->spilled.load()) {
        continue;
      }
      const std::string path = "/v1/sessions/" + ids[k];
      const auto got = dispatch(router, "GET", path);
      ASSERT_EQ(got.status, 200) << ids[k];
      ++touched;
      EXPECT_LE(store.residentCount(), 2U) << "after touching " << ids[k];
      EXPECT_FALSE(store.find(ids[k])->spilled.load()) << ids[k];
      const Value doc = Value::parse(got.body);
      for (const char* key : {"position", "nodes", "peakNodes"}) {
        EXPECT_EQ(doc.getNumber(key, -1), residentDocs[k].getNumber(key, -2))
            << ids[k] << " " << key;
      }
      EXPECT_EQ(doc.getString("state", "?"),
                residentDocs[k].getString("state", "!"))
          << ids[k];
      EXPECT_EQ(dispatch(router, "GET", path + "/dd?fmt=json").body,
                residentDds[k])
          << ids[k];
    }
  }
  EXPECT_GE(touched, 6U);
  EXPECT_EQ(store.residentCount() + store.spilledCount(), 4U);
  EXPECT_EQ(store.restoreFailures(), 0U);
}

/// Keeps session `id` busy with GETs for `ms` milliseconds, one every 20 ms:
/// requests to one session while the others idle, and no create.
void touchFor(const service::Router& router, const std::string& id, int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_EQ(dispatch(router, "GET", "/v1/sessions/" + id).status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// The store's entry for `id`, looked up without find() (which sweeps).
std::shared_ptr<service::SessionStore::Entry>
listed(const service::SessionStore& store, const std::string& id) {
  for (const auto& entry : store.list()) {
    if (entry->id == id) {
      return entry;
    }
  }
  return nullptr;
}

TEST(ServiceSpillTest, IdleSessionSpillsWhileAnotherIsServed) {
  const SpillDir spill("idle");
  service::ApiOptions apiOpts;
  apiOpts.spillDir = spill.path;
  apiOpts.spillAfterMs = 200;
  service::ServiceMetrics metrics;
  service::Api api(apiOpts, metrics);
  service::Router router;
  api.install(router);
  for (int k = 0; k < 2; ++k) {
    ASSERT_EQ(dispatch(router, "POST", "/v1/sessions",
                       R"({"builder": {"name": "bell"}})")
                  .status,
              201);
  }
  auto& store = api.sessions();
  touchFor(router, "s2", 400);
  // s1 idled past spillAfterMs while only s2 was served
  ASSERT_NE(listed(store, "s1"), nullptr);
  EXPECT_TRUE(listed(store, "s1")->spilled.load());
  EXPECT_GE(store.spilledTotal(), 1U);
  // and it comes back on its next touch
  EXPECT_EQ(dispatch(router, "GET", "/v1/sessions/s1").status, 200);
  EXPECT_GE(store.restores(), 1U);
}

TEST(ServiceSpillTest, IdleSessionExpiresWhileAnotherIsServed) {
  service::ApiOptions apiOpts;
  apiOpts.sessionTtlMs = 400;
  service::ServiceMetrics metrics;
  service::Api api(apiOpts, metrics);
  service::Router router;
  api.install(router);
  for (int k = 0; k < 2; ++k) {
    ASSERT_EQ(dispatch(router, "POST", "/v1/sessions",
                       R"({"builder": {"name": "bell"}})")
                  .status,
              201);
  }
  auto& store = api.sessions();
  touchFor(router, "s2", 700);
  // s1 idled past the TTL while only s2 was served
  EXPECT_EQ(store.evicted(), 1U);
  EXPECT_EQ(listed(store, "s1"), nullptr);
  EXPECT_NE(listed(store, "s2"), nullptr);
  EXPECT_EQ(dispatch(router, "GET", "/v1/sessions/s1").status, 404);
}

TEST(ServiceSpillTest, ExpiredSessionIsGoneBetweenSweeps) {
  service::SessionStoreOptions opts;
  opts.ttlMs = 400; // find() sweeps at most every 40 ms
  service::SessionStore store(opts);
  const ir::QuantumComputation circuit = ir::builders::bell();
  auto entry = store.create("simulation");
  ASSERT_NE(entry, nullptr);
  entry->qubits = circuit.numQubits();
  entry->package = std::make_unique<Package>(entry->qubits);
  entry->simulation =
      std::make_unique<sim::SimulationSession>(circuit, *entry->package);
  const std::string id = entry->id;
  store.publish(entry);
  entry.reset();

  std::this_thread::sleep_for(std::chrono::milliseconds(380));
  store.evictExpired(); // idle 380 ms: kept
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // idle past the TTL, but the last sweep is younger than the interval:
  // the lookup itself must not hand the session out (and so revive it)
  EXPECT_EQ(store.find(id), nullptr);
  EXPECT_EQ(store.evicted(), 1U);
  EXPECT_EQ(store.size(), 0U);
}

TEST(ServiceSpillTest, ShardedStoreSurvivesParallelChurn) {
  // Direct store-level stress: create/publish/find/spill/restore/erase
  // racing on one store. Run under TSan in CI (the store mutex, atomic
  // LRU stamps, and the entry-mutex restore guard are the units under
  // test).
  const SpillDir spill("churn");
  service::SessionStoreOptions opts;
  opts.maxSessions = 64;
  opts.spillDir = spill.path;
  opts.maxResident = 8;
  service::SessionStore store(opts);

  constexpr std::size_t THREADS = 4;
  constexpr std::size_t ITERATIONS = 25;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> failures{0};
  for (std::size_t t = 0; t < THREADS; ++t) {
    threads.emplace_back([&store, &failures] {
      const ir::QuantumComputation circuit = ir::builders::bell();
      for (std::size_t i = 0; i < ITERATIONS; ++i) {
        auto entry = store.create("simulation");
        if (entry == nullptr) {
          store.evictExpired();
          continue;
        }
        entry->qubits = circuit.numQubits();
        entry->name = "bell";
        entry->package = std::make_unique<Package>(entry->qubits);
        entry->simulation = std::make_unique<sim::SimulationSession>(
            circuit, *entry->package);
        const std::string id = entry->id;
        store.publish(entry);
        entry.reset();

        auto found = store.find(id);
        if (found == nullptr) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        store.spillNow(id);
        {
          // touch: transparently restore, then advance one gate
          const std::lock_guard<std::mutex> lock(found->mutex);
          try {
            store.ensureResident(*found);
          } catch (const service::RestoreError&) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (found->simulation == nullptr ||
              found->package == nullptr) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          found->simulation->stepForward();
        }
        found.reset();
        if (i % 3 == 0) {
          store.erase(id);
        }
        store.evictExpired();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0U);
  EXPECT_EQ(store.residentCount() + store.spilledCount(), store.size());
  // stats from every retired package were folded exactly once, never lost
  EXPECT_GT(store.created(), 0U);
}

} // namespace
