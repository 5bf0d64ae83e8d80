#include "qdd/service/Http.hpp"

#include "qdd/net/HttpParser.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace qdd::service {

namespace {

constexpr std::size_t MAX_HEADER_BYTES = net::MAX_HTTP_HEADER_BYTES;

std::string toLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

/// Appends up to `want` more bytes from fd into `buf`; false on EOF/error.
bool fill(int fd, std::string& buf, std::size_t want) {
  char chunk[4096];
  const std::size_t n = std::min(want, sizeof(chunk));
  const ssize_t got = ::recv(fd, chunk, n, 0);
  if (got <= 0) {
    return false;
  }
  buf.append(chunk, static_cast<std::size_t>(got));
  return true;
}

bool sendAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t sent = ::send(fd, data, len, MSG_NOSIGNAL);
    if (sent <= 0) {
      return false;
    }
    data += sent;
    len -= static_cast<std::size_t>(sent);
  }
  return true;
}

} // namespace

const char* statusReason(int status) {
  switch (status) {
  case 200:
    return "OK";
  case 201:
    return "Created";
  case 204:
    return "No Content";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 408:
    return "Request Timeout";
  case 413:
    return "Payload Too Large";
  case 422:
    return "Unprocessable Entity";
  case 429:
    return "Too Many Requests";
  case 431:
    return "Request Header Fields Too Large";
  case 500:
    return "Internal Server Error";
  case 501:
    return "Not Implemented";
  case 503:
    return "Service Unavailable";
  default:
    return "Unknown";
  }
}

std::string serializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    statusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.contentType + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += response.close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

// --- client ------------------------------------------------------------------

HttpClient::HttpClient(std::string host, std::uint16_t port)
    : host(std::move(host)), port(port) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void HttpClient::ensureConnected() {
  if (fd >= 0) {
    return;
  }
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("HttpClient: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    throw std::runtime_error("HttpClient: bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    disconnect();
    throw std::runtime_error("HttpClient: cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

HttpClient::Result HttpClient::request(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extraHeaders) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    ensureConnected();
    std::string msg = method + " " + target + " HTTP/1.1\r\n";
    msg += "Host: " + host + "\r\n";
    if (!body.empty() || method == "POST" || method == "PUT") {
      msg += "Content-Type: application/json\r\n";
      msg += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    for (const auto& [name, value] : extraHeaders) {
      msg += name + ": " + value + "\r\n";
    }
    msg += "\r\n" + body;
    if (!sendAll(fd, msg.data(), msg.size())) {
      // stale keep-alive connection: reconnect once
      disconnect();
      continue;
    }

    std::string buf;
    std::size_t headerEnd = std::string::npos;
    while ((headerEnd = buf.find("\r\n\r\n")) == std::string::npos) {
      if (!fill(fd, buf, MAX_HEADER_BYTES)) {
        disconnect();
        if (buf.empty() && attempt == 0) {
          goto retry; // server closed the idle connection before our request
        }
        throw std::runtime_error("HttpClient: connection lost mid-response");
      }
    }
    {
      Result result;
      const std::size_t lineEnd = buf.find("\r\n");
      const std::string line = buf.substr(0, lineEnd);
      if (line.size() < 12 || line.compare(0, 5, "HTTP/") != 0) {
        disconnect();
        throw std::runtime_error("HttpClient: malformed status line");
      }
      result.status = std::atoi(line.substr(9, 3).c_str());

      std::size_t pos = lineEnd + 2;
      while (pos < headerEnd) {
        const std::size_t eol = buf.find("\r\n", pos);
        const std::string header = buf.substr(pos, eol - pos);
        pos = eol + 2;
        const std::size_t colon = header.find(':');
        if (colon != std::string::npos) {
          result.headers[toLower(trim(header.substr(0, colon)))] =
              trim(header.substr(colon + 1));
        }
      }
      std::size_t contentLength = 0;
      const auto cl = result.headers.find("content-length");
      if (cl != result.headers.end()) {
        contentLength = static_cast<std::size_t>(
            std::strtoull(cl->second.c_str(), nullptr, 10));
      }
      const std::size_t bodyStart = headerEnd + 4;
      while (buf.size() - bodyStart < contentLength) {
        if (!fill(fd, buf, contentLength - (buf.size() - bodyStart))) {
          disconnect();
          throw std::runtime_error("HttpClient: truncated response body");
        }
      }
      result.body = buf.substr(bodyStart, contentLength);
      const auto conn = result.headers.find("connection");
      if (conn != result.headers.end() && toLower(conn->second) == "close") {
        disconnect();
      }
      return result;
    }
  retry:
    continue;
  }
  throw std::runtime_error("HttpClient: request failed after reconnect");
}

} // namespace qdd::service
