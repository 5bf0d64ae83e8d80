#pragma once

// The load generator's HTTP/1.1 client: one keep-alive connection over
// loopback, Content-Length framing only. Written apart from the program's
// HttpClient so that a change to the server's wire layer cannot change how
// the benchmark measures it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sessbench {

struct HttpResult {
  int status = 0;
  std::string body;
  std::size_t wireBytes = 0; ///< status line + headers + body
  double ms = 0.;            ///< first byte sent until last byte received
};

class HttpConnection {
public:
  explicit HttpConnection(std::uint16_t port) : port(port) {}
  ~HttpConnection() { close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  void close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    carry.clear();
  }

  /// Connects if needed; false when the server does not accept.
  bool connectOnce() {
    if (fd >= 0) {
      return true;
    }
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close();
      return false;
    }
    return true;
  }

  HttpResult request(std::string_view method, std::string_view target,
                     std::string_view body = {}) {
    if (!connectOnce()) {
      throw std::runtime_error("cannot connect to 127.0.0.1:" +
                               std::to_string(port));
    }
    std::string out;
    out.reserve(128 + body.size());
    out.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
    out.append("Host: 127.0.0.1\r\n");
    if (!body.empty()) {
      out.append("Content-Type: application/json\r\n");
    }
    out.append("Content-Length: ").append(std::to_string(body.size()));
    out.append("\r\n\r\n").append(body);

    HttpResult r;
    const auto t0 = std::chrono::steady_clock::now();
    sendAll(out);
    readResponse(r);
    r.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
    return r;
  }

private:
  void sendAll(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("send failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void fill() {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("connection closed by server");
      }
      carry.append(buf, static_cast<std::size_t>(n));
      return;
    }
  }

  void readResponse(HttpResult& r) {
    std::size_t headerEnd;
    while ((headerEnd = carry.find("\r\n\r\n")) == std::string::npos) {
      fill();
    }
    const std::string_view head(carry.data(), headerEnd);
    if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") {
      throw std::runtime_error("bad status line");
    }
    r.status = std::stoi(std::string(head.substr(9, 3)));
    std::size_t length = 0;
    bool haveLength = false;
    std::size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos < head.size()) {
      const std::size_t next = head.find("\r\n", pos + 2);
      const std::string_view line =
          head.substr(pos + 2, (next == std::string_view::npos ? head.size()
                                                               : next) -
                                   pos - 2);
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        std::string name(line.substr(0, colon));
        for (char& c : name) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        if (name == "content-length") {
          length = std::stoull(std::string(line.substr(colon + 1)));
          haveLength = true;
        }
      }
      pos = next;
    }
    if (!haveLength) {
      throw std::runtime_error("response without Content-Length");
    }
    const std::size_t total = headerEnd + 4 + length;
    while (carry.size() < total) {
      fill();
    }
    r.body.assign(carry, headerEnd + 4, length);
    r.wireBytes = total;
    carry.erase(0, total);
  }

  std::uint16_t port;
  int fd = -1;
  std::string carry;
};

} // namespace sessbench
