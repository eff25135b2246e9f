// mcloudd — the live storage front-end daemon (DESIGN.md §11).
//
//   mcloudd [--port P] [--bind ADDR] [--front-ends N] [--log FILE]
//           [--stats-json FILE] [--max-body-mb M] [--self-check]
//
// Binds (port 0 = kernel-assigned), prints one machine-readable line
//
//   mcloudd listening on ADDR:PORT
//
// to stdout, then serves the chunk protocol of src/net/live_protocol.h
// until SIGINT/SIGTERM. On shutdown it drains in-flight requests, writes
// the live request log (Table 1 schema; --log writes CSV for a `.csv` name
// and v2 otherwise) and the service counters (--stats-json, also printed),
// so a live run feeds the exact same analysis pipeline as a simulated trace.
//
// --self-check binds, prints the port, and immediately drains — the ctest
// probe that port-0 startup and clean shutdown work.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/epoll_server.h"
#include "net/live_service.h"
#include "trace/log_io.h"
#include "util/error.h"

#include "args.h"

namespace {

using namespace mcloud;
using tools::Args;

/// The flags mcloudd takes; it takes no positional argument.
constexpr tools::FlagTable kFlags = {
    "port bind front-ends log stats-json max-body-mb", "self-check help",
    false};

void Usage() {
  std::fprintf(stderr,
               "usage: mcloudd [--port P] [--bind ADDR] [--front-ends N]\n"
               "               [--log FILE] [--stats-json FILE]\n"
               "               [--max-body-mb M] [--self-check]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = tools::Parse("mcloudd", "mcloudd", kFlags, argc, argv, 1);
  if (args.Has("help")) {
    Usage();
    return 0;
  }
  // Socket sends use MSG_NOSIGNAL, but stdout may be a pipe whose reader
  // (a spawning mcloudload) is long gone by shutdown time.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    net::LiveServiceConfig service_config;
    service_config.front_ends = std::max<std::uint32_t>(
        1, args.GetU64<std::uint32_t>("front-ends", 4));
    net::LiveService service(service_config);

    net::ServerConfig server_config;
    server_config.bind_address = args.Get("bind", "127.0.0.1");
    server_config.port = args.GetU64<std::uint16_t>("port", 0);
    if (args.Has("max-body-mb")) {
      server_config.limits.max_body_bytes =
          args.GetU64<std::size_t>("max-body-mb", 4, tools::kMaxMiB) * 1024 *
          1024;
    }
    net::EpollServer server(
        server_config,
        [&service](const net::HttpRequest& req,
                   const net::RequestContext& ctx) {
          return service.Handle(req, ctx);
        });
    const std::uint16_t port = server.Start();
    // The one line spawners parse; flushed before serving starts.
    std::printf("mcloudd listening on %s:%u\n",
                server_config.bind_address.c_str(),
                static_cast<unsigned>(port));
    std::fflush(stdout);

    if (args.Has("self-check")) {
      server.RequestStop();
    } else {
      net::EpollServer::InstallStopSignals(&server);
    }
    server.Run();
    net::EpollServer::InstallStopSignals(nullptr);

    // Snapshot stats before TakeLog() empties the service's log buffer,
    // so log_records reports the session total rather than zero.
    const std::string stats = service.StatsJson();

    // Chunk-retrieve records land at response-flush time, so the live log
    // is only near-sorted; restore the canonical trace order.
    std::vector<LogRecord> log = service.TakeLog();
    std::stable_sort(log.begin(), log.end(), LogRecordTimeOrder);
    const std::string log_path = args.Get("log");
    if (!log_path.empty()) WriteTrace(log_path, log);
    const std::string stats_path = args.Get("stats-json");
    if (!stats_path.empty()) {
      std::ofstream out(stats_path);
      out << stats << "\n";
    }
    const net::ServerStats& ss = server.stats();
    std::printf("mcloudd: %llu requests on %llu connections, %llu records\n",
                static_cast<unsigned long long>(ss.requests),
                static_cast<unsigned long long>(ss.accepted),
                static_cast<unsigned long long>(log.size()));
    std::printf("%s\n", stats.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "mcloudd: %s\n", e.what());
    return 1;
  }
}
