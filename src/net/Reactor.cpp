#include "qdd/net/Reactor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define QDD_NET_HAS_EPOLL 1
#else
#define QDD_NET_HAS_EPOLL 0
#endif

namespace qdd::net {

namespace {

constexpr std::uint64_t WAKE_TOKEN = 0;
constexpr std::uint64_t LISTEN_TOKEN = 1;
constexpr std::size_t READ_CHUNK = 16U * 1024U;

bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

std::int64_t Reactor::nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Reactor::Reactor(ReactorOptions options, Dispatch dispatch,
                 ParseErrorResponder onParseError)
    : options(options), dispatch(std::move(dispatch)),
      onParseError(std::move(onParseError)) {}

Reactor::~Reactor() { stop(); }

void Reactor::start(int listenSocket) {
  listenFd = listenSocket;
  if (!setNonBlocking(listenFd)) {
    throw std::runtime_error("Reactor: cannot make listen socket "
                             "non-blocking");
  }

  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    throw std::runtime_error("Reactor: pipe() failed");
  }
  wakeRead = pipeFds[0];
  wakeWrite = pipeFds[1];
  setNonBlocking(wakeRead);
  setNonBlocking(wakeWrite);

  effectiveBackend = Backend::Poll;
#if QDD_NET_HAS_EPOLL
  if (options.backend == Backend::Epoll) {
    epollFd = ::epoll_create1(0);
    if (epollFd >= 0) {
      effectiveBackend = Backend::Epoll;
      epoll_event ev{};
      // wake pipe and listen socket stay level-triggered: they are drained
      // opportunistically, not to EAGAIN on every edge
      ev.events = EPOLLIN;
      ev.data.u64 = WAKE_TOKEN;
      ::epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeRead, &ev);
      ev.events = EPOLLIN;
      ev.data.u64 = LISTEN_TOKEN;
      ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev);
    }
  }
#endif

  lastSweepMs = nowMs();
  thread = std::thread([this] { loop(); });
}

void Reactor::wake() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeWrite, &byte, 1);
}

std::shared_ptr<Reactor::Conn> Reactor::lookup(std::uint64_t token) {
  const std::lock_guard<std::mutex> lock(connsMutex);
  const auto it = conns.find(token);
  return it == conns.end() ? nullptr : it->second;
}

void Reactor::complete(std::uint64_t token, std::string bytes,
                       bool closeAfter) {
  if (stopping.load(std::memory_order_acquire)) {
    return; // reactor is gone; the connection is already closed
  }
  const auto conn = lookup(token);
  if (conn != nullptr) {
    const std::lock_guard<std::mutex> lock(conn->ioMutex);
    if (!conn->alive) {
      return; // closed while the worker was busy
    }
    conn->closeAfterWrite = conn->closeAfterWrite || closeAfter;
    std::size_t written = 0;
    if (conn->out.empty()) {
      // direct-write fast path: the socket usually takes the whole
      // response in one non-blocking send, so the client never waits for
      // the reactor wakeup. A full buffer hands the remainder to the
      // reactor's EPOLLOUT writeout — the worker never blocks.
      while (written < bytes.size()) {
        const ssize_t sent = ::send(conn->fd, bytes.data() + written,
                                    bytes.size() - written, MSG_NOSIGNAL);
        if (sent > 0) {
          written += static_cast<std::size_t>(sent);
          continue;
        }
        if (sent < 0 && errno == EINTR) {
          continue;
        }
        // EAGAIN or a dead peer: leave the rest to the reactor (which
        // also owns error handling / teardown)
        break;
      }
    }
    conn->out.append(bytes, written, bytes.size() - written);
  }

  // the reactor still runs the post-response bookkeeping: clear the
  // in-flight flag, parse pipelined input, arm EPOLLOUT, or close
  bool needWake = false;
  {
    const std::lock_guard<std::mutex> lock(completionMutex);
    if (stopping.load(std::memory_order_relaxed)) {
      return;
    }
    completions.push_back({token});
    if (!wakePending) {
      wakePending = true;
      needWake = true;
    }
  }
  if (needWake) {
    wake();
  }
}

void Reactor::loop() {
  const int sweepEveryMs =
      options.idleTimeoutMs > 0
          ? std::clamp(options.idleTimeoutMs / 4, 20, 1000)
          : 500;

#if QDD_NET_HAS_EPOLL
  epoll_event events[64];
#endif

  while (!stopping.load(std::memory_order_acquire)) {
#if QDD_NET_HAS_EPOLL
    if (effectiveBackend == Backend::Epoll) {
      const int n = ::epoll_wait(epollFd, events, 64, sweepEveryMs);
      for (int i = 0; i < n; ++i) {
        const std::uint64_t token = events[i].data.u64;
        if (token == WAKE_TOKEN) {
          char buf[64];
          while (::read(wakeRead, buf, sizeof(buf)) > 0) {
          }
        } else if (token == LISTEN_TOKEN) {
          acceptReady();
        } else {
          if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
            readable(token);
          }
          if ((events[i].events & EPOLLOUT) != 0) {
            writable(token);
          }
        }
      }
    } else
#endif
    {
      std::vector<pollfd> pfds;
      std::vector<std::uint64_t> tokens;
      {
        const std::lock_guard<std::mutex> lock(connsMutex);
        pfds.reserve(conns.size() + 2);
        tokens.reserve(conns.size() + 2);
        pfds.push_back({wakeRead, POLLIN, 0});
        tokens.push_back(WAKE_TOKEN);
        pfds.push_back({listenFd, POLLIN, 0});
        tokens.push_back(LISTEN_TOKEN);
        for (const auto& [token, conn] : conns) {
          short ev = POLLIN;
          if (conn->wantWrite) {
            ev |= POLLOUT;
          }
          pfds.push_back({conn->fd, ev, 0});
          tokens.push_back(token);
        }
      }
      const int n =
          ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), sweepEveryMs);
      if (n > 0) {
        for (std::size_t i = 0; i < pfds.size(); ++i) {
          if (pfds[i].revents == 0) {
            continue;
          }
          if (tokens[i] == WAKE_TOKEN) {
            char buf[64];
            while (::read(wakeRead, buf, sizeof(buf)) > 0) {
            }
          } else if (tokens[i] == LISTEN_TOKEN) {
            acceptReady();
          } else {
            if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
              readable(tokens[i]);
            }
            if ((pfds[i].revents & POLLOUT) != 0 &&
                lookup(tokens[i]) != nullptr) {
              writable(tokens[i]);
            }
          }
        }
      }
    }

    drainCompletions();

    const std::int64_t now = nowMs();
    if (now - lastSweepMs >= sweepEveryMs) {
      lastSweepMs = now;
      sweepIdle();
    }
  }
}

void Reactor::acceptReady() {
  for (;;) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      return; // EAGAIN (drained) or transient error — either way, done
    }
    if (stopping.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    setNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const std::uint64_t token = nextToken++;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->lastActivityMs = nowMs();
    {
      const std::lock_guard<std::mutex> lock(connsMutex);
      conns.emplace(token, std::move(conn));
    }
    openCount.fetch_add(1, std::memory_order_relaxed);
    acceptedN.fetch_add(1, std::memory_order_relaxed);

#if QDD_NET_HAS_EPOLL
    if (effectiveBackend == Backend::Epoll) {
      epoll_event ev{};
      // edge-triggered: readable() always drains to EAGAIN, so no edge is
      // ever lost and the loop never spins on level-ready sockets
      ev.events = EPOLLIN | EPOLLET;
      ev.data.u64 = token;
      ::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev);
    }
#endif
  }
}

void Reactor::readable(std::uint64_t token) {
  auto conn = lookup(token);
  if (conn == nullptr) {
    return;
  }
  bool sawEof = false;
  char chunk[READ_CHUNK];
  for (;;) {
    const ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      conn->in.append(chunk, static_cast<std::size_t>(got));
      conn->lastActivityMs = nowMs();
      // abuse guard: a client pipelining unbounded data while a request is
      // in flight must not grow the buffer without limit
      if (conn->in.size() >
          options.maxBodyBytes + MAX_HTTP_HEADER_BYTES + READ_CHUNK) {
        destroy(token);
        return;
      }
      continue;
    }
    if (got == 0) {
      sawEof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    destroy(token);
    return;
  }

  maybeParse(token);

  if (sawEof && lookup(token) != nullptr) {
    // peer finished sending; flush whatever response is (or becomes) due,
    // then close — a busy connection closes when its completion lands
    bool idle = false;
    {
      const std::lock_guard<std::mutex> lock(conn->ioMutex);
      conn->closeAfterWrite = true;
      idle = !conn->busy && conn->out.empty();
    }
    if (idle) {
      destroy(token);
    }
  }
}

void Reactor::maybeParse(std::uint64_t token) {
  const auto conn = lookup(token);
  if (conn == nullptr) {
    return;
  }
  if (conn->busy) {
    return; // one request in flight per connection; pipelined bytes wait
  }
  {
    const std::lock_guard<std::mutex> lock(conn->ioMutex);
    if (conn->closeAfterWrite) {
      return; // draining towards close; no further requests
    }
  }
  service::HttpRequest request;
  const ParseStatus status =
      tryParseHttpRequest(conn->in, request, options.maxBodyBytes);
  switch (status) {
  case ParseStatus::NeedMore:
    return;
  case ParseStatus::Ok:
    conn->busy = true;
    conn->lastActivityMs = nowMs();
    dispatch(token, std::move(request));
    return;
  case ParseStatus::Malformed:
  case ParseStatus::TooLarge:
  case ParseStatus::Unsupported:
    {
      const std::lock_guard<std::mutex> lock(conn->ioMutex);
      conn->out += onParseError(status);
      conn->closeAfterWrite = true;
    }
    flushWrite(token);
    return;
  }
}

void Reactor::flushWrite(std::uint64_t token) {
  const auto conn = lookup(token);
  if (conn == nullptr) {
    return;
  }
  bool shouldDestroy = false;
  {
    const std::lock_guard<std::mutex> lock(conn->ioMutex);
    std::size_t written = 0;
    while (written < conn->out.size()) {
      const ssize_t sent = ::send(conn->fd, conn->out.data() + written,
                                  conn->out.size() - written, MSG_NOSIGNAL);
      if (sent > 0) {
        written += static_cast<std::size_t>(sent);
        conn->lastActivityMs = nowMs();
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (sent < 0 && errno == EINTR) {
        continue;
      }
      shouldDestroy = true; // dead peer
      break;
    }
    conn->out.erase(0, written);
    shouldDestroy =
        shouldDestroy || (conn->out.empty() && conn->closeAfterWrite);
  }
  if (shouldDestroy) {
    destroy(token);
    return;
  }
  updateWriteInterest(token);
}

void Reactor::updateWriteInterest(std::uint64_t token) {
  const auto conn = lookup(token);
  if (conn == nullptr) {
    return;
  }
  bool want = false;
  {
    const std::lock_guard<std::mutex> lock(conn->ioMutex);
    want = !conn->out.empty();
  }
  if (want == conn->wantWrite) {
    return;
  }
  conn->wantWrite = want;
#if QDD_NET_HAS_EPOLL
  if (effectiveBackend == Backend::Epoll) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | (want ? EPOLLOUT : 0U);
    ev.data.u64 = token;
    ::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn->fd, &ev);
  }
#endif
  // poll backend: the per-iteration pollfd rebuild picks wantWrite up
}

void Reactor::writable(std::uint64_t token) { flushWrite(token); }

void Reactor::drainCompletions() {
  std::vector<Completion> batch;
  {
    const std::lock_guard<std::mutex> lock(completionMutex);
    batch.swap(completions);
    wakePending = false;
  }
  for (auto& completion : batch) {
    const auto conn = lookup(completion.token);
    if (conn == nullptr) {
      continue; // connection closed while the worker was busy
    }
    conn->busy = false;
    conn->lastActivityMs = nowMs();
    // the response bytes already sit in conn->out (or went out on the
    // worker's direct write); flush the remainder / arm EPOLLOUT / close
    flushWrite(completion.token);
    // a pipelined follow-up request may already sit in the read buffer
    maybeParse(completion.token);
  }
}

void Reactor::sweepIdle() {
  if (options.idleTimeoutMs <= 0) {
    return;
  }
  const std::int64_t now = nowMs();
  std::vector<std::uint64_t> stale;
  {
    const std::lock_guard<std::mutex> lock(connsMutex);
    for (const auto& [token, conn] : conns) {
      if (!conn->busy &&
          now - conn->lastActivityMs > options.idleTimeoutMs) {
        stale.push_back(token);
      }
    }
  }
  for (const std::uint64_t token : stale) {
    idleClosedN.fetch_add(1, std::memory_order_relaxed);
    destroy(token);
  }
}

void Reactor::destroy(std::uint64_t token) {
  std::shared_ptr<Conn> conn;
  {
    const std::lock_guard<std::mutex> lock(connsMutex);
    const auto it = conns.find(token);
    if (it == conns.end()) {
      return;
    }
    conn = it->second;
    conns.erase(it);
  }
  // lowered before the close: a peer that has seen EOF must never read
  // the connection as still open
  openCount.fetch_sub(1, std::memory_order_relaxed);
  {
    // fence off complete()'s direct write before the fd number can be
    // reused: a worker holding the shared_ptr sees alive == false
    const std::lock_guard<std::mutex> lock(conn->ioMutex);
    conn->alive = false;
#if QDD_NET_HAS_EPOLL
    if (effectiveBackend == Backend::Epoll) {
      ::epoll_ctl(epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
    }
#endif
    ::close(conn->fd);
  }
}

void Reactor::stop() {
  {
    const std::lock_guard<std::mutex> lock(completionMutex);
    if (stopping.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
  }
  if (thread.joinable()) {
    wake();
    thread.join();
  }
  std::vector<std::shared_ptr<Conn>> remaining;
  {
    const std::lock_guard<std::mutex> lock(connsMutex);
    remaining.reserve(conns.size());
    for (auto& [token, conn] : conns) {
      remaining.push_back(conn);
    }
    conns.clear();
  }
  // zeroed before the closes, as in destroy()
  openCount.store(0, std::memory_order_relaxed);
  for (const auto& conn : remaining) {
    const std::lock_guard<std::mutex> lock(conn->ioMutex);
    conn->alive = false;
    ::close(conn->fd);
  }
  {
    // drop completions that raced the shutdown
    const std::lock_guard<std::mutex> lock(completionMutex);
    completions.clear();
  }
  if (epollFd >= 0) {
    ::close(epollFd);
    epollFd = -1;
  }
  if (wakeRead >= 0) {
    ::close(wakeRead);
    wakeRead = -1;
  }
  if (wakeWrite >= 0) {
    ::close(wakeWrite);
    wakeWrite = -1;
  }
}

} // namespace qdd::net
