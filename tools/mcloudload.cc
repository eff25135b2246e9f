// mcloudload — open-loop trace-replay load generator (DESIGN.md §11).
//
//   mcloudload (--trace PATH | --users N [--pc N] [--seed S] [--days D])
//              [--port P | --spawn MCLOUDD_PATH]
//              [--qps Q | --duration S] [--connections N] [--per-request]
//              [--max-chunk-kb K] [--no-verify] [--host ADDR]
//              [--json FILE] [--server-log FILE]
//
// The trace source is either an on-disk trace (--trace: a v2, CSV or v1
// file, or a partitioned MCLOGv02 directory) or a freshly generated
// workload (--users, same generator as `mcloudctl generate`). Each Table 1
// record becomes exactly one wire request, scheduled open-loop at its trace
// timestamp rescaled to the target rate (--qps, or --duration to fix the
// replay length regardless of record count).
//
// --spawn forks/execs an `mcloudd --port 0`, parses the kernel-assigned
// port from its "listening on" line, replays against it, SIGTERMs it, and
// then cross-checks the server's written log against the input trace: the
// run fails unless per-session record counts match 1:1. This is the ctest
// loopback integration path — one command, no fixed ports, no sleeps.
//
// Exit status is non-zero on transport errors, verification failures,
// HTTP errors, or a live-log/trace mismatch.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/replay.h"
#include "trace/log_io.h"
#include "util/error.h"
#include "workload/generator.h"

#include "args.h"

namespace {

using namespace mcloud;
using tools::Args;

/// The flags mcloudload takes; it takes no positional argument.
constexpr tools::FlagTable kFlags = {
    "trace users pc seed days port spawn qps duration connections host json "
    "max-chunk-kb server-log",
    "per-request no-verify help", false};

void Usage() {
  std::fprintf(
      stderr,
      "usage: mcloudload (--trace PATH | --users N [--pc N] [--seed S]\n"
      "                   [--days D]) [--port P | --spawn MCLOUDD]\n"
      "                  [--qps Q | --duration S] [--connections N]\n"
      "                  [--per-request] [--max-chunk-kb K] [--no-verify]\n"
      "                  [--host ADDR] [--json FILE] [--server-log FILE]\n");
}

/// A spawned `mcloudd --port 0` child: fork/exec, port parsed from its
/// "listening on" line, SIGTERM + waitpid on Stop().
struct SpawnedServer {
  pid_t pid = -1;
  std::uint16_t port = 0;

  static SpawnedServer Launch(const std::string& binary,
                              const std::string& log_path) {
    int fds[2];
    MCLOUD_REQUIRE(::pipe(fds) == 0, "mcloudload: pipe failed");
    SpawnedServer s;
    s.pid = ::fork();
    MCLOUD_REQUIRE(s.pid >= 0, "mcloudload: fork failed");
    if (s.pid == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      ::execl(binary.c_str(), "mcloudd", "--port", "0", "--log",
              log_path.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "mcloudload: exec %s failed: %s\n",
                   binary.c_str(), std::strerror(errno));
      ::_exit(127);
    }
    ::close(fds[1]);
    // Read the child's first line: "mcloudd listening on ADDR:PORT".
    std::string line;
    char c;
    while (::read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    ::close(fds[0]);
    const auto colon = line.rfind(':');
    MCLOUD_REQUIRE(colon != std::string::npos && colon + 1 < line.size(),
                   "mcloudload: could not parse mcloudd port from '" + line +
                       "'");
    s.port = static_cast<std::uint16_t>(
        std::strtoul(line.c_str() + colon + 1, nullptr, 10));
    MCLOUD_REQUIRE(s.port != 0, "mcloudload: mcloudd reported port 0");
    return s;
  }

  /// Graceful stop; returns the child's exit status (-1 on abnormal exit).
  int Stop() const {
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args =
      tools::Parse("mcloudload", "mcloudload", kFlags, argc, argv, 1);
  if (args.Has("help")) {
    Usage();
    return 0;
  }
  try {
    // --- numbers, all read before anything is generated or printed --------
    workload::WorkloadConfig wc;
    wc.seed = args.GetU64("seed", 42);
    wc.population.mobile_users = args.GetU64("users", 100);
    wc.population.pc_only_users = args.GetU64("pc", 0);
    wc.population.days = args.GetU64<int>("days", 7);
    wc.threads = 1;
    net::ReplayPlanOptions plan_options;
    plan_options.max_chunk_bytes =
        args.GetU64("max-chunk-kb", 0, tools::kMaxMiB * 1024) * kKiB;
    plan_options.target_qps = args.GetDouble("qps", 0.0);
    const double duration = std::max(args.GetDouble("duration", 10.0), 0.1);
    net::ReplayOptions replay_options;
    replay_options.host = args.Get("host", "127.0.0.1");
    replay_options.port = args.GetU64<std::uint16_t>("port", 0);
    replay_options.connections = args.GetU64<int>("connections", 4);
    replay_options.persistent = !args.Has("per-request");
    replay_options.verify = !args.Has("no-verify");

    // --- trace source ----------------------------------------------------
    std::vector<LogRecord> trace;
    if (args.Has("trace")) {
      trace = net::LoadTraceForReplay(args.Get("trace"));
    } else if (args.Has("users")) {
      trace = workload::WorkloadGenerator(wc).Generate().trace;
    } else {
      Usage();
      return 2;
    }
    MCLOUD_REQUIRE(!trace.empty(), "mcloudload: trace source is empty");

    // --- plan ------------------------------------------------------------
    if (args.Has("duration")) {
      plan_options.target_qps = static_cast<double>(trace.size()) / duration;
    }
    const net::ReplayPlan plan = net::BuildReplayPlan(trace, plan_options);
    std::printf(
        "mcloudload: %zu requests (%llu fileops, %llu puts, %llu gets), "
        "%.1f MB to upload, %.1fs scheduled at %.0f req/s\n",
        plan.items.size(), static_cast<unsigned long long>(plan.fileops),
        static_cast<unsigned long long>(plan.chunk_puts),
        static_cast<unsigned long long>(plan.chunk_gets),
        ToMB(plan.put_bytes), plan.duration,
        plan.duration > 0
            ? static_cast<double>(plan.items.size()) / plan.duration
            : 0.0);

    // --- target server ---------------------------------------------------
    SpawnedServer spawned;
    std::string server_log = args.Get("server-log");
    if (args.Has("spawn")) {
      if (server_log.empty()) {
        server_log = (std::filesystem::temp_directory_path() /
                      ("mcloudd_live_" + std::to_string(::getpid()) + ".bin"))
                         .string();
      }
      spawned = SpawnedServer::Launch(args.Get("spawn"), server_log);
      replay_options.port = spawned.port;
      std::printf("mcloudload: spawned mcloudd pid %d on port %u\n",
                  static_cast<int>(spawned.pid),
                  static_cast<unsigned>(spawned.port));
    } else {
      MCLOUD_REQUIRE(replay_options.port != 0,
                     "mcloudload: --port or --spawn required");
    }

    // --- replay ----------------------------------------------------------
    const net::ReplayReport report = net::ExecuteReplay(plan, replay_options);
    std::printf(
        "mcloudload: %llu sent, %llu ok, %llu http errors, %llu transport "
        "errors, %llu verify failures in %.2fs (%.0f req/s achieved)\n",
        static_cast<unsigned long long>(report.sent),
        static_cast<unsigned long long>(report.ok),
        static_cast<unsigned long long>(report.http_errors),
        static_cast<unsigned long long>(report.transport_errors),
        static_cast<unsigned long long>(report.verify_failures),
        report.wall_seconds, report.achieved_qps);
    std::printf(
        "mcloudload: latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, "
        "p999 %.3f ms; %llu dedup hits, %llu index / %llu replica serves\n",
        report.LatencyQuantile(0.50) * 1e3, report.LatencyQuantile(0.90) * 1e3,
        report.LatencyQuantile(0.99) * 1e3,
        report.LatencyQuantile(0.999) * 1e3,
        static_cast<unsigned long long>(report.dedup_hits),
        static_cast<unsigned long long>(report.index_serves),
        static_cast<unsigned long long>(report.replica_serves));

    const std::string json_path = args.Get("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << report.ToJson();
      std::printf("mcloudload: wrote %s\n", json_path.c_str());
    }

    bool failed = report.transport_errors > 0 || report.http_errors > 0 ||
                  report.verify_failures > 0;

    // --- post-run cross-check against the server's own log ---------------
    if (spawned.pid > 0) {
      const int server_status = spawned.Stop();
      if (server_status != 0) {
        std::fprintf(stderr, "mcloudload: mcloudd exited with status %d\n",
                     server_status);
        failed = true;
      }
      const std::vector<LogRecord> live = ReadTrace(server_log);
      if (const auto mismatch = net::LiveLogMatchesTrace(trace, live)) {
        std::fprintf(stderr, "mcloudload: live log check FAILED: %s\n",
                     mismatch->c_str());
        failed = true;
      } else {
        std::printf(
            "mcloudload: live log check ok — %zu records, per-session "
            "counts match the input trace\n",
            live.size());
      }
      if (!args.Has("server-log")) std::remove(server_log.c_str());
    }
    return failed ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "mcloudload: %s\n", e.what());
    return 1;
  }
}
