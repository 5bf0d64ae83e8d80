#pragma once

// qdd::service — HTTP/1.1 wire types. Dependency-free (POSIX sockets only):
// request/response structs, response serialization, and a small blocking
// client used by tests, benchmarks, and scripted drivers. Requests are
// parsed by the reactor's incremental parser (qdd/net/HttpParser.hpp).
//
// Supported surface (all the session API needs, nothing more): methods with
// a Content-Length body or none, keep-alive and close, query strings.
// Transfer-Encoding: chunked is rejected with 501.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qdd::service {

/// One parsed request. Header names are lower-cased; query values are the
/// raw (undecoded) octets between '=' and '&'.
struct HttpRequest {
  std::string method;
  std::string target; ///< as received, e.g. "/v1/sessions/s1/dd?fmt=dot"
  std::string path;   ///< target up to '?'
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;
  std::string body;
  bool keepAlive = true;
};

/// One response about to be serialized.
struct HttpResponse {
  int status = 200;
  std::string contentType = "application/json";
  std::string body;
  bool close = false; ///< force Connection: close
  /// Extra headers emitted verbatim (e.g. the traceparent echo). The
  /// framing headers (Content-Type/-Length, Connection) stay owned by
  /// serializeHttpResponse and cannot be overridden here.
  std::vector<std::pair<std::string, std::string>> headers;

  static HttpResponse json(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.body = std::move(body);
    return r;
  }
};

/// Standard reason phrase for the status codes the service emits.
[[nodiscard]] const char* statusReason(int status);

/// Serializes `response` into on-the-wire bytes (status line, framing
/// headers, body), which the reactor queues on the connection's write
/// buffer.
[[nodiscard]] std::string serializeHttpResponse(const HttpResponse& response);

/// Minimal blocking HTTP client bound to one host/port: opens the
/// connection lazily, keeps it alive across requests, reconnects once when
/// the server closed it. Used by tests/test_service.cpp, bench_service, and
/// anything scripting the API without curl.
class HttpClient {
public:
  HttpClient(std::string host, std::uint16_t port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  struct Result {
    int status = 0;
    std::string body;
    std::map<std::string, std::string> headers; ///< lower-cased names
  };

  /// Performs one request; throws std::runtime_error on transport failure.
  /// `extraHeaders` are sent verbatim (e.g. {{"traceparent", "00-..."}}).
  Result request(const std::string& method, const std::string& target,
                 const std::string& body = "",
                 const std::vector<std::pair<std::string, std::string>>&
                     extraHeaders = {});

  /// Closes the connection (next request reconnects).
  void disconnect();

private:
  void ensureConnected();

  std::string host;
  std::uint16_t port;
  int fd = -1;
};

} // namespace qdd::service
