#include "net/epoll_server.h"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.h"

namespace mcloud::net {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a listener paused at the fd limit waits for a connection to
/// close before it tries to accept again.
constexpr std::chrono::milliseconds kAcceptRetry{100};

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MCLOUD_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(O_NONBLOCK) failed");
}

[[nodiscard]] Seconds KernelRtt(int fd) {
  struct tcp_info info{};
  socklen_t len = sizeof(info);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) != 0) return 0;
  return static_cast<Seconds>(info.tcpi_rtt) * 1e-6;
}

std::atomic<EpollServer*> g_signal_server{nullptr};

void StopSignalHandler(int /*signo*/) {
  // Async-signal-safe: RequestStop is one eventfd write.
  if (EpollServer* s = g_signal_server.load(std::memory_order_relaxed)) {
    s->RequestStop();
  }
}

}  // namespace

EpollServer::EpollServer(const ServerConfig& config, HttpHandler handler)
    : config_(config), handler_(std::move(handler)) {
  MCLOUD_REQUIRE(handler_ != nullptr, "EpollServer needs a handler");
}

EpollServer::~EpollServer() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (g_signal_server.load(std::memory_order_relaxed) == this) {
    InstallStopSignals(nullptr);
  }
}

std::uint16_t EpollServer::Start() {
  MCLOUD_REQUIRE(listen_fd_ < 0, "Start() called twice");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  MCLOUD_CHECK(epoll_fd_ >= 0, "epoll_create1 failed");
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  MCLOUD_CHECK(stop_fd_ >= 0, "eventfd failed");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  MCLOUD_CHECK(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    throw Error("bad bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw Error("bind(" + config_.bind_address + ":" +
                std::to_string(config_.port) +
                ") failed: " + std::strerror(errno));
  }
  MCLOUD_CHECK(::listen(listen_fd_, config_.backlog) == 0, "listen() failed");
  SetNonBlocking(listen_fd_);

  // Report the port the kernel actually assigned (the point of port 0).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  MCLOUD_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "getsockname failed");
  port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  MCLOUD_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
               "epoll_ctl(listener) failed");
  ev.events = EPOLLIN;
  ev.data.fd = stop_fd_;
  MCLOUD_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) == 0,
               "epoll_ctl(stop) failed");
  return port_;
}

void EpollServer::RequestStop() {
  if (stop_fd_ < 0) return;
  const std::uint64_t one = 1;
  // Best effort; EAGAIN means a stop is already pending.
  [[maybe_unused]] const auto n = ::write(stop_fd_, &one, sizeof(one));
}

void EpollServer::InstallStopSignals(EpollServer* server) {
  g_signal_server.store(server, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = server != nullptr ? StopSignalHandler : SIG_DFL;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void EpollServer::UpdateInterest(Connection& conn) {
  const bool want_write = !conn.FlushDone();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  MCLOUD_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0,
               "epoll_ctl(MOD) failed");
}

void EpollServer::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  ++stats_.closed;
  ResumeAccept();  // a descriptor is free again
}

void EpollServer::PauseAccept() {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_paused_ = true;
  accept_retry_at_ = Clock::now() + kAcceptRetry;
}

void EpollServer::ResumeAccept() {
  if (!accept_paused_ || listen_fd_ < 0) return;
  accept_paused_ = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  MCLOUD_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
               "epoll_ctl(listener) failed");
}

void EpollServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of descriptors: the backlog keeps the listener readable, so
      // stop polling it until one is free.
      if (errno == EMFILE || errno == ENFILE) PauseAccept();
      return;  // transient accept failure; keep serving
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto [it, inserted] =
        connections_.emplace(fd, Connection(config_.limits));
    it->second.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    MCLOUD_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                 "epoll_ctl(ADD conn) failed");
    ++stats_.accepted;
  }
}

void EpollServer::QueueResponse(Connection& conn,
                                const HttpResponse& response) {
  conn.out.append(SerializeResponse(response));
  conn.queued = conn.written + (conn.out.size() - conn.out_off);
  if (response.on_flushed) {
    conn.flush_cbs.emplace_back(conn.queued, response.on_flushed);
  }
  if (response.close) conn.close_after_flush = true;
  ++stats_.responses;
}

bool EpollServer::FlushWrites(Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    const auto n = ::send(conn.fd, conn.out.data() + conn.out_off,
                          conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn.fd);
      return false;
    }
    conn.out_off += static_cast<std::size_t>(n);
    conn.written += static_cast<std::uint64_t>(n);
    // Fire flush callbacks whose watermark the write crossed.
    while (!conn.flush_cbs.empty() &&
           conn.flush_cbs.front().first <= conn.written) {
      auto cb = std::move(conn.flush_cbs.front().second);
      conn.flush_cbs.erase(conn.flush_cbs.begin());
      cb();
    }
  }
  if (conn.FlushDone()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      CloseConnection(conn.fd);
      return false;
    }
  }
  UpdateInterest(conn);
  return true;
}

bool EpollServer::HandleReadable(Connection& conn) {
  char buf[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    const auto n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!conn.in_request) {
        conn.in_request = true;
        conn.first_byte_at = Clock::now();
      }
      conn.parser.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn.fd);
    return false;
  }

  HttpRequest req;
  for (;;) {
    const HttpParser::Result r = conn.parser.Poll(req);
    if (r == HttpParser::Result::kNeedMore) break;
    if (r == HttpParser::Result::kError) {
      ++stats_.parse_errors;
      HttpResponse err;
      err.status = conn.parser.error_status();
      err.body = conn.parser.error();
      err.body.append("\n");
      err.close = true;
      QueueResponse(conn, err);
      conn.in_request = false;
      break;
    }
    ++stats_.requests;
    RequestContext ctx;
    ctx.first_byte_at = conn.first_byte_at;
    ctx.recv_seconds =
        std::chrono::duration<double>(Clock::now() - conn.first_byte_at)
            .count();
    ctx.rtt = KernelRtt(conn.fd);
    HttpResponse resp = handler_(req, ctx);
    if (!req.KeepAlive()) resp.close = true;
    QueueResponse(conn, resp);
    // A pipelined next request already buffered starts its clock now (its
    // bytes arrived while this one was being handled).
    conn.in_request = conn.parser.HasBufferedData();
    conn.first_byte_at = Clock::now();
    if (resp.close) break;
  }

  if (peer_closed && conn.FlushDone()) {
    CloseConnection(conn.fd);
    return false;
  }
  if (peer_closed) conn.close_after_flush = true;
  return FlushWrites(conn);
}

void EpollServer::Run() {
  MCLOUD_REQUIRE(listen_fd_ >= 0, "call Start() before Run()");
  bool draining = false;
  Clock::time_point drain_deadline{};
  epoll_event events[64];

  for (;;) {
    if (draining) {
      // Close connections with nothing left to say; leave flushing ones.
      std::vector<int> idle;
      for (auto& [fd, conn] : connections_) {
        if (conn.FlushDone() && !conn.parser.HasBufferedData()) {
          idle.push_back(fd);
        }
      }
      for (int fd : idle) CloseConnection(fd);
      if (connections_.empty() || Clock::now() >= drain_deadline) break;
    }

    int timeout_ms = draining ? 20 : -1;
    if (accept_paused_ && !draining) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          accept_retry_at_ - Clock::now());
      if (wait.count() <= 0) {
        ResumeAccept();
      } else {
        timeout_ms = static_cast<int>(wait.count());
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("epoll_wait failed: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_fd_) {
        std::uint64_t drainval = 0;
        [[maybe_unused]] const auto rd =
            ::read(stop_fd_, &drainval, sizeof(drainval));
        if (!draining) {
          draining = true;
          drain_deadline =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     config_.drain_grace));
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConnection(fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        if (!HandleReadable(conn)) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) FlushWrites(conn);
    }
  }

  // Hard-close anything the grace period left behind.
  while (!connections_.empty()) CloseConnection(connections_.begin()->first);
}

}  // namespace mcloud::net
