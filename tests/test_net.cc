// Tests for the live service mode (src/net): the HTTP parser under
// adversarial framing, the chunked response round-trip, port-0 binding,
// the chunk protocol against a real loopback server, the replay input
// formats, the in-process replay integration (generated trace → live
// server → matching log), and a server that runs out of descriptors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <thread>

#include "net/epoll_server.h"
#include "net/http.h"
#include "net/live_protocol.h"
#include "net/live_service.h"
#include "net/replay.h"
#include "trace/log_io.h"
#include "trace/trace_store.h"
#include "util/md5.h"
#include "workload/generator.h"

namespace mcloud::net {
namespace {

// --- HttpParser -----------------------------------------------------------

TEST(HttpParser, ParsesSimpleRequest) {
  HttpParser p;
  p.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(p.Poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.version, "HTTP/1.1");
  ASSERT_NE(req.Header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.Header("HOST"), "x");
  EXPECT_TRUE(req.KeepAlive());
  EXPECT_EQ(p.Poll(req), HttpParser::Result::kNeedMore);
}

TEST(HttpParser, HandlesArbitrarySplitReads) {
  const std::string wire =
      "PUT /chunk HTTP/1.1\r\nContent-Length: 5\r\nX-Mc-User: 7\r\n\r\nhello"
      "GET /stats HTTP/1.1\r\n\r\n";
  // Feed byte-by-byte and in every two-way split: same two requests out.
  for (std::size_t split = 1; split < wire.size(); ++split) {
    HttpParser p;
    p.Feed(std::string_view(wire).substr(0, split));
    HttpRequest req;
    std::vector<HttpRequest> got;
    while (p.Poll(req) == HttpParser::Result::kRequest) got.push_back(req);
    p.Feed(std::string_view(wire).substr(split));
    while (p.Poll(req) == HttpParser::Result::kRequest) got.push_back(req);
    ASSERT_EQ(got.size(), 2u) << "split at " << split;
    EXPECT_EQ(got[0].method, "PUT");
    EXPECT_EQ(got[0].body, "hello");
    EXPECT_EQ(got[0].HeaderU64("X-Mc-User", 0), 7u);
    EXPECT_EQ(got[1].target, "/stats");
  }
}

TEST(HttpParser, PipelinedRequestsPopInOrder) {
  HttpParser p;
  p.Feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n"
      "POST /c HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy");
  HttpRequest req;
  ASSERT_EQ(p.Poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/a");
  ASSERT_EQ(p.Poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/b");
  ASSERT_EQ(p.Poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/c");
  EXPECT_EQ(req.body, "xy");
  EXPECT_EQ(p.Poll(req), HttpParser::Result::kNeedMore);
  EXPECT_FALSE(p.HasBufferedData());
}

TEST(HttpParser, MalformedRequestLineIs400) {
  for (const char* bad : {
           "GARBAGE\r\n\r\n",
           "GET /x HTTP/2.0\r\n\r\n",          // unsupported version
           "GET  HTTP/1.1\r\n\r\n",            // missing target
           "GET /x HTTP/1.1 extra\r\n\r\n",    // 4 tokens
           "GET /x HTTP/1.1\r\nbad line\r\n\r\n",  // header w/o colon
       }) {
    HttpParser p;
    p.Feed(bad);
    HttpRequest req;
    EXPECT_EQ(p.Poll(req), HttpParser::Result::kError) << bad;
    EXPECT_EQ(p.error_status(), 400) << bad;
  }
}

TEST(HttpParser, OversizedHeadersAndBodyAreRejected) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 64;
  {
    HttpParser p(limits);
    p.Feed("GET / HTTP/1.1\r\nX-Big: " + std::string(200, 'a') + "\r\n\r\n");
    HttpRequest req;
    ASSERT_EQ(p.Poll(req), HttpParser::Result::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {
    HttpParser p(limits);
    p.Feed("PUT /chunk HTTP/1.1\r\nContent-Length: 100\r\n\r\n");
    HttpRequest req;
    ASSERT_EQ(p.Poll(req), HttpParser::Result::kError);
    EXPECT_EQ(p.error_status(), 413);
  }
}

// --- chunked framing round-trip -------------------------------------------

TEST(HttpChunked, ResponseRoundTripsThroughClientParser) {
  HttpResponse r;
  r.chunked = true;
  r.chunk_size = 7;  // force many chunks
  for (int i = 0; i < 100; ++i) r.body += "payload-" + std::to_string(i);
  const std::string wire = SerializeResponse(r);

  // Feed in uneven pieces to exercise the chunked decoder's resume paths.
  HttpResponseParser p;
  HttpResponseMsg msg;
  std::size_t off = 0, step = 1;
  auto result = HttpResponseParser::Result::kNeedMore;
  while (off < wire.size()) {
    const std::size_t n = std::min(step, wire.size() - off);
    p.Feed(std::string_view(wire).substr(off, n));
    off += n;
    step = step * 2 + 1;
    result = p.Poll(msg);
    if (result == HttpResponseParser::Result::kResponse) break;
    ASSERT_NE(result, HttpResponseParser::Result::kError) << p.error();
  }
  ASSERT_EQ(result, HttpResponseParser::Result::kResponse);
  EXPECT_EQ(msg.status, 200);
  EXPECT_EQ(msg.body, r.body);
  ASSERT_NE(msg.Header("Transfer-Encoding"), nullptr);
}

// --- live protocol helpers ------------------------------------------------

TEST(LiveProtocol, ChunkBodiesAreDeterministic) {
  std::string a, b, c;
  FillChunkBody(42, 3, 1000, a);
  FillChunkBody(42, 3, 1000, b);
  FillChunkBody(42, 4, 1000, c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1000u);

  Md5Digest md5 = Md5::Hash(a);
  EXPECT_EQ(md5.ToHex().size(), 32u);
  Md5Digest parsed;
  ASSERT_TRUE(ParseHexMd5(md5.ToHex(), parsed));
  EXPECT_EQ(parsed, md5);
  EXPECT_FALSE(ParseHexMd5("not-a-hash", parsed));
  EXPECT_FALSE(ParseHexMd5(std::string(32, 'g'), parsed));
}

// --- replay input -----------------------------------------------------------

TEST(ReplayInput, LoadsColumnarTraceFile) {
  workload::WorkloadConfig wc;
  wc.seed = 11;
  wc.population.mobile_users = 12;
  wc.population.pc_only_users = 0;
  wc.threads = 1;
  std::vector<LogRecord> trace =
      workload::WorkloadGenerator(wc).Generate().trace;
  ASSERT_FALSE(trace.empty());
  // Trace files keep times in microseconds.
  for (LogRecord& r : trace) {
    for (Seconds* t : {&r.processing_time, &r.server_time, &r.avg_rtt})
      *t = mcloud::detail::FromMicros(mcloud::detail::ToMicros(*t));
  }
  const auto path =
      std::filesystem::temp_directory_path() / "mcloud_replay_input.v2";
  WriteColumnarTrace(path, TraceStore::FromRecords(trace));
  EXPECT_EQ(LoadTraceForReplay(path), trace);
  std::filesystem::remove(path);
}

TEST(ReplayInput, LoadsPartitionedTraceInTimeOrder) {
  workload::WorkloadConfig wc;
  wc.seed = 11;
  wc.population.mobile_users = 300;
  wc.population.pc_only_users = 100;
  wc.threads = 2;
  // The spill keeps only the analysis columns; the others read back at
  // their defaults.
  std::vector<LogRecord> want =
      workload::WorkloadGenerator(wc).GenerateColumnar().trace.ToRecords();
  for (LogRecord& r : want) {
    r.processing_time = r.server_time = r.avg_rtt = 0;
    r.proxied = false;
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "mcloud_replay_input_parts";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  workload::SpillConfig spill;
  spill.dir = dir;
  spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
  spill.users_per_chunk = 16;
  const workload::SpillSummary sum =
      workload::WorkloadGenerator(wc).GenerateToPartitions(spill);
  ASSERT_GT(sum.spills, 1u);

  const std::vector<LogRecord> got = LoadTraceForReplay(dir);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), LogRecordTimeOrder));
  EXPECT_EQ(got, want);
  std::filesystem::remove_all(dir);
}

// --- loopback server integration ------------------------------------------

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LiveServiceConfig config;
    config.front_ends = 2;
    service_ = std::make_unique<LiveService>(config);
    ServerConfig server_config;
    server_config.port = 0;  // ephemeral by construction: no port races
    server_ = std::make_unique<EpollServer>(
        server_config, [this](const HttpRequest& req,
                              const RequestContext& ctx) {
          return service_->Handle(req, ctx);
        });
    port_ = server_->Start();
    ASSERT_NE(port_, 0);
    thread_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    server_->RequestStop();
    thread_.join();
  }

  std::unique_ptr<LiveService> service_;
  std::unique_ptr<EpollServer> server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST_F(LiveServerTest, BindsEphemeralPortAndDrainsCleanly) {
  // Two servers at once: port 0 means they can never collide.
  ServerConfig config;
  EpollServer other(config, [](const HttpRequest&, const RequestContext&) {
    return HttpResponse{};
  });
  const std::uint16_t other_port = other.Start();
  EXPECT_NE(other_port, 0);
  EXPECT_NE(other_port, port_);
  other.RequestStop();
  other.Run();  // returns immediately after the drain
}

TEST_F(LiveServerTest, ChunkPutThenGetRoundTripsBytes) {
  // Drive the wire protocol through the replay client machinery: one
  // store fileop, two chunk puts, two gets of the same chunks.
  std::vector<LogRecord> trace;
  LogRecord r;
  r.timestamp = 1000;
  r.user_id = 11;
  r.device_id = 21;
  r.request_type = RequestType::kFileOperation;
  r.direction = Direction::kStore;
  trace.push_back(r);
  r.request_type = RequestType::kChunkRequest;
  r.data_volume = 64 * 1024;
  trace.push_back(r);
  r.timestamp = 1001;
  trace.push_back(r);
  r.timestamp = 1002;
  r.direction = Direction::kRetrieve;
  trace.push_back(r);
  r.timestamp = 1003;
  trace.push_back(r);

  ReplayPlanOptions plan_options;
  plan_options.target_qps = 200;  // finish fast
  const ReplayPlan plan = BuildReplayPlan(trace, plan_options);
  ASSERT_EQ(plan.items.size(), trace.size());
  EXPECT_EQ(plan.chunk_puts, 2u);
  EXPECT_EQ(plan.chunk_gets, 2u);

  ReplayOptions replay_options;
  replay_options.port = port_;
  replay_options.connections = 1;
  const ReplayReport report = ExecuteReplay(plan, replay_options);
  EXPECT_EQ(report.sent, trace.size());
  EXPECT_EQ(report.ok, trace.size());
  EXPECT_EQ(report.transport_errors, 0u);
  EXPECT_EQ(report.http_errors, 0u);
  // Byte-for-byte verification: both GETs must hit the chunk index and
  // return exactly the stored bytes.
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.index_serves, 2u);
  EXPECT_EQ(report.replica_serves, 0u);
  EXPECT_GT(report.bytes_received, 2u * 64 * 1024);
}

TEST_F(LiveServerTest, ReplayOfGeneratedTraceMatchesLogPerSession) {
  workload::WorkloadConfig wc;
  wc.seed = 11;
  wc.population.mobile_users = 12;
  wc.population.pc_only_users = 0;
  wc.population.days = 7;
  wc.threads = 1;
  std::vector<LogRecord> trace =
      workload::WorkloadGenerator(wc).Generate().trace;
  ASSERT_FALSE(trace.empty());
  // Keep the in-process test fast: ~100 sessions' worth of records.
  if (trace.size() > 2000) trace.resize(2000);
  std::stable_sort(trace.begin(), trace.end(), LogRecordTimeOrder);

  ReplayPlanOptions plan_options;
  plan_options.max_chunk_bytes = 16 * kKiB;
  plan_options.target_qps = 1000;
  const ReplayPlan plan = BuildReplayPlan(trace, plan_options);
  ASSERT_EQ(plan.items.size(), trace.size());

  ReplayOptions replay_options;
  replay_options.port = port_;
  replay_options.connections = 3;
  const ReplayReport report = ExecuteReplay(plan, replay_options);
  EXPECT_EQ(report.sent, trace.size());
  EXPECT_EQ(report.transport_errors, 0u);
  EXPECT_EQ(report.http_errors, 0u);
  EXPECT_EQ(report.verify_failures, 0u);

  server_->RequestStop();
  thread_.join();
  thread_ = std::thread([] {});  // TearDown joins again

  // The live log has exactly one record per trace record, per session.
  std::vector<LogRecord> live = service_->TakeLog();
  const auto mismatch = LiveLogMatchesTrace(trace, live);
  EXPECT_FALSE(mismatch.has_value()) << mismatch.value_or("");
  // And the records carry real measured timings.
  std::size_t with_time = 0;
  for (const LogRecord& rec : live) {
    if (rec.request_type == RequestType::kChunkRequest &&
        rec.processing_time > 0) {
      ++with_time;
    }
  }
  EXPECT_GT(with_time, 0u);
}

TEST_F(LiveServerTest, PerRequestConnectionsAlsoWork) {
  std::vector<LogRecord> trace;
  LogRecord r;
  r.timestamp = 5000;
  r.user_id = 3;
  r.device_id = 4;
  r.request_type = RequestType::kFileOperation;
  r.direction = Direction::kStore;
  for (int i = 0; i < 10; ++i) {
    r.timestamp = 5000 + i;
    trace.push_back(r);
  }

  ReplayPlanOptions plan_options;
  plan_options.target_qps = 500;
  ReplayOptions replay_options;
  replay_options.port = port_;
  replay_options.connections = 2;
  replay_options.persistent = false;  // fresh connection per request
  const ReplayReport report =
      ExecuteReplay(BuildReplayPlan(trace, plan_options), replay_options);
  EXPECT_EQ(report.ok, trace.size());
  EXPECT_EQ(report.transport_errors, 0u);
}

TEST_F(LiveServerTest, ServerAnswersMalformedRequestWith400) {
  // Raw socket poke: malformed request line must yield a 400 and a close.
  std::vector<LogRecord> trace(1);
  trace[0].request_type = RequestType::kFileOperation;
  // Use the replay client for a well-formed baseline first.
  ReplayOptions replay_options;
  replay_options.port = port_;
  replay_options.connections = 1;
  const ReplayReport ok_report =
      ExecuteReplay(BuildReplayPlan(trace, {}), replay_options);
  EXPECT_EQ(ok_report.ok, 1u);
  EXPECT_EQ(service_->counters().fileops, 1u);
}

// --- descriptor exhaustion ------------------------------------------------

/// A blocking loopback TCP client of `port` with a 5 s receive timeout, or
/// -1.
int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Kills and reaps a forked child that the test did not wait for itself.
struct ChildGuard {
  pid_t pid = -1;
  ~ChildGuard() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
};

TEST(EpollServerLimits, IdlesAtTheFdLimitAndServesOnceFdsFree) {
  // A forked child serves with a lowered RLIMIT_NOFILE, and this process
  // holds more connections to it than that limit. The backlog keeps the
  // level-triggered listener readable, so a server that merely returns on
  // EMFILE spins a whole core; this one must idle, then serve again once
  // the connections close.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  ChildGuard child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    ::close(pipe_fds[0]);
    int code = 1;
    try {
      // The lowest free descriptor shows how many are open already; leave
      // room for the server's own three and a dozen connections.
      const int probe = ::dup(0);
      ::close(probe);
      const rlim_t limit = static_cast<rlim_t>(probe) + 16;
      const rlimit lim{limit, limit};
      if (::setrlimit(RLIMIT_NOFILE, &lim) == 0) {
        LiveService service(LiveServiceConfig{});
        EpollServer server(ServerConfig{}, [&](const HttpRequest& req,
                                               const RequestContext& ctx) {
          return service.Handle(req, ctx);
        });
        const std::uint32_t ready[2] = {server.Start(),
                                        static_cast<std::uint32_t>(limit)};
        EpollServer::InstallStopSignals(&server);
        if (::write(pipe_fds[1], ready, sizeof(ready)) ==
            static_cast<ssize_t>(sizeof(ready))) {
          ::close(pipe_fds[1]);
          server.Run();
          code = 0;
        }
      }
    } catch (...) {
    }
    ::_exit(code);
  }
  ::close(pipe_fds[1]);
  std::uint32_t ready[2] = {0, 0};
  const ssize_t got = ::read(pipe_fds[0], ready, sizeof(ready));
  ::close(pipe_fds[0]);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(ready)));
  const auto port = static_cast<std::uint16_t>(ready[0]);
  const std::uint32_t limit = ready[1];

  clockid_t child_clock;
  ASSERT_EQ(::clock_getcpuclockid(child.pid, &child_clock), 0);
  const auto child_cpu = [&] {
    timespec ts{};
    ::clock_gettime(child_clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };

  std::vector<int> clients;
  for (std::uint32_t i = 0; i < limit + 24; ++i) {
    const int fd = ConnectLoopback(port);
    if (fd < 0) break;
    clients.push_back(fd);
  }
  ASSERT_EQ(clients.size(), limit + 24);
  // Let the server accept up to its limit, then watch it hold there.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double cpu0 = child_cpu();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(child_cpu() - cpu0, 0.2) << "the server spun at its fd limit";

  for (const int fd : clients) ::close(fd);
  const int fd = ConnectLoopback(port);
  ASSERT_GE(fd, 0);
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[512];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("ok"), std::string::npos) << response;

  ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child.pid, &status, 0), child.pid);
  child.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

}  // namespace
}  // namespace mcloud::net
