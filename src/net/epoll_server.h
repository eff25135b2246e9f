// Single-threaded epoll HTTP server — the network front of `mcloudd`
// (DESIGN.md §11).
//
// Design points, in the order they matter to correctness:
//   * The listener binds with SO_REUSEADDR and supports port 0: the kernel
//     assigns an ephemeral port which Start() returns (and `mcloudd` prints),
//     so loopback tests never race on a fixed port.
//   * Everything is nonblocking and level-triggered on one epoll instance;
//     the handler runs on the server thread, so handler state needs no locks.
//   * Responses carry an optional on_flushed callback fired when the last
//     byte has been written to the socket — the hook the live service uses to
//     measure T_chunk (first byte in → last byte out) on real kernel TCP.
//   * Out of file descriptors (accept fails with EMFILE or ENFILE), the
//     listener leaves the epoll set, since a level-triggered listener with
//     a full backlog would wake the loop forever. It comes back when a
//     connection closes, or after 100 ms when none does.
//   * RequestStop() is thread- and async-signal-safe (one eventfd write).
//     Stopping drains: the listener closes immediately, buffered pipelined
//     requests are answered, pending output is flushed, then Run() returns.
//     A grace deadline bounds the drain against stuck peers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/http.h"
#include "util/units.h"

namespace mcloud::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port
  int backlog = 128;
  HttpLimits limits{};
  Seconds drain_grace = 5.0;  ///< max wait for in-flight flush on stop
};

/// Per-request context handed to the handler alongside the parsed request.
struct RequestContext {
  /// steady_clock instant when the first byte of this request arrived.
  std::chrono::steady_clock::time_point first_byte_at{};
  /// First byte in → parse complete (the request receive time).
  Seconds recv_seconds = 0;
  /// Kernel-smoothed RTT of the carrying connection (TCP_INFO), seconds.
  Seconds rtt = 0;
};

using HttpHandler =
    std::function<HttpResponse(const HttpRequest&, const RequestContext&)>;

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t closed = 0;
};

class EpollServer {
 public:
  EpollServer(const ServerConfig& config, HttpHandler handler);
  ~EpollServer();
  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Bind + listen. Returns the bound port (the kernel-assigned one when
  /// config.port == 0). Throws Error on any socket failure.
  std::uint16_t Start();
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Serve until RequestStop(), then drain and return. Call Start() first.
  void Run();

  /// Thread- and signal-safe stop request (eventfd write).
  void RequestStop();

  /// Route SIGINT/SIGTERM to server.RequestStop(). One server at a time;
  /// passing nullptr restores SIG_DFL.
  static void InstallStopSignals(EpollServer* server);

  [[nodiscard]] const ServerStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    std::string out;          ///< bytes queued, not yet written
    std::size_t out_off = 0;  ///< written prefix of `out`
    /// (queued-bytes watermark, callback) pairs: fired when the total
    /// written byte count passes the watermark.
    std::vector<std::pair<std::uint64_t, std::function<void()>>> flush_cbs;
    std::uint64_t queued = 0;   ///< total bytes ever queued
    std::uint64_t written = 0;  ///< total bytes ever written
    bool close_after_flush = false;
    bool want_write = false;  ///< EPOLLOUT currently registered
    std::chrono::steady_clock::time_point first_byte_at{};
    bool in_request = false;  ///< first_byte_at is armed

    explicit Connection(const HttpLimits& limits) : parser(limits) {}
    [[nodiscard]] bool FlushDone() const { return out_off == out.size(); }
  };

  void AcceptPending();
  /// Takes the listener out of the epoll set (accept hit the fd limit).
  void PauseAccept();
  /// Puts a paused listener back into the epoll set.
  void ResumeAccept();
  /// Returns false when the connection was closed.
  bool HandleReadable(Connection& conn);
  bool FlushWrites(Connection& conn);
  void QueueResponse(Connection& conn, const HttpResponse& response);
  void UpdateInterest(Connection& conn);
  void CloseConnection(int fd);

  ServerConfig config_;
  HttpHandler handler_;
  ServerStats stats_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd; any write requests a stop
  std::uint16_t port_ = 0;
  std::map<int, Connection> connections_;
  bool accept_paused_ = false;  ///< listener out of the epoll set
  /// When a paused listener is put back even if no connection has closed
  /// (the fds may be held elsewhere, e.g. ENFILE).
  std::chrono::steady_clock::time_point accept_retry_at_{};
};

}  // namespace mcloud::net
