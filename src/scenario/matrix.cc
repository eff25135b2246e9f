#include "scenario/matrix.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "cloud/fleet.h"
#include "scenario/workload_spec.h"
#include "util/error.h"
#include "util/fnv.h"
#include "workload/generator.h"

namespace mcloud::scenario {

namespace {

std::string Fmt(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

double MedianOf(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double Mb(Bytes b) { return static_cast<double>(b) / 1e6; }

}  // namespace

fault::FaultConfig FaultGrid(const std::string& name) {
  fault::FaultConfig f;
  if (name == "none") return f;
  if (name == "frontend-flaky") {
    // Crash/restart plus degraded-T_srv episodes on the front-end fleet.
    f.frontend_fail_rate = 0.05;
    f.degraded_rate = 0.10;
    return f;
  }
  if (name == "lossy-cell") {
    // Cellular loss bursts on the client side; front ends stay healthy.
    f.loss_burst_rate = 0.15;
    return f;
  }
  throw Error("unknown fault grid `" + name +
              "` (known: none, frontend-flaky, lossy-cell)");
}

void ApplyConnectionStrategy(cloud::ServiceConfig& config,
                             const std::string& name) {
  if (name == "baseline") {
    config.ssai_enabled = true;
    config.pace_after_idle = false;
    return;
  }
  if (name == "no-ssai") {
    config.ssai_enabled = false;
    config.pace_after_idle = false;
    return;
  }
  if (name == "paced") {
    config.ssai_enabled = false;
    config.pace_after_idle = true;
    return;
  }
  throw Error("unknown connection strategy `" + name +
              "` (known: baseline, no-ssai, paced)");
}

void ApplyChunkPolicy(cloud::ServiceConfig& config, const std::string& name) {
  if (name == "paper") {
    config.chunk_size = kChunkSize;
    config.batch_chunks = 1;
    return;
  }
  if (name == "chunk2m") {
    config.chunk_size = 2 * kMiB;
    config.batch_chunks = 1;
    return;
  }
  if (name == "batch4") {
    config.chunk_size = kChunkSize;
    config.batch_chunks = 4;
    return;
  }
  throw Error("unknown chunk policy `" + name +
              "` (known: paper, chunk2m, batch4)");
}

MatrixReport RunMatrix(const MatrixOptions& options) {
  MCLOUD_REQUIRE(!options.specs.empty(), "matrix needs at least one spec");
  MCLOUD_REQUIRE(!options.faults.empty() && !options.connections.empty() &&
                     !options.chunk_policies.empty(),
                 "every matrix axis needs at least one value");
  // Validate all axis names up front so a typo fails before the first
  // (potentially long) generation.
  for (const auto& f : options.faults) (void)FaultGrid(f);
  for (const auto& c : options.connections) {
    cloud::ServiceConfig probe;
    ApplyConnectionStrategy(probe, c);
  }
  for (const auto& c : options.chunk_policies) {
    cloud::ServiceConfig probe;
    ApplyChunkPolicy(probe, c);
  }

  MatrixReport report;
  report.users = options.users;
  report.seed = options.seed;
  report.shards = options.shards;

  for (const std::string& spec_name : options.specs) {
    const WorkloadSpec spec = LoadSpec(spec_name, options.specs_dir);
    workload::WorkloadConfig cfg =
        Compile(spec, options.seed, options.threads);
    if (options.users > 0) {
      cfg.population.pc_only_users =
          spec.mobile_users ? spec.pc_only_users * options.users /
                                  spec.mobile_users
                            : spec.pc_only_users;
      cfg.population.mobile_users = options.users;
    }
    // Plans only, generated once per spec and shared by all of its cells.
    const workload::Workload w =
        workload::WorkloadGenerator(cfg).GeneratePlansOnly();

    for (const std::string& fault : options.faults) {
      for (const std::string& conn : options.connections) {
        for (const std::string& chunk : options.chunk_policies) {
          cloud::FleetConfig fc;
          fc.shards = options.shards;
          fc.threads = options.threads;
          fc.service.faults = FaultGrid(fault);
          ApplyConnectionStrategy(fc.service, conn);
          ApplyChunkPolicy(fc.service, chunk);

          const auto t0 = std::chrono::steady_clock::now();
          const cloud::FleetResult fleet = ExecuteFleet(fc, w.sessions);
          const std::chrono::duration<double> wall =
              std::chrono::steady_clock::now() - t0;
          const cloud::ServiceResult& r = fleet.result;

          MatrixCell cell;
          cell.spec = spec.name;
          cell.fault = fault;
          cell.connection = conn;
          cell.chunk = chunk;
          cell.fingerprint = cloud::FingerprintServiceResult(r);
          cell.sessions = r.faults.sessions;
          cell.ops = r.faults.ops;
          cell.failed_sessions = r.faults.failed_sessions;
          cell.failed_ops = r.faults.failed_ops;
          cell.flows = r.flows;
          cell.slow_start_restarts = r.slow_start_restarts;
          cell.chunk_requests = r.chunk_perf.size();
          cell.goodput_mb = Mb(r.faults.goodput_bytes);
          cell.wasted_mb = Mb(r.faults.wasted_bytes);
          std::vector<double> ttran;
          ttran.reserve(r.chunk_perf.size());
          for (const auto& c : r.chunk_perf) ttran.push_back(c.ttran);
          cell.median_ttran_s = MedianOf(std::move(ttran));
          cell.session_success_rate =
              r.faults.sessions
                  ? 1.0 - static_cast<double>(r.faults.failed_sessions) /
                              static_cast<double>(r.faults.sessions)
                  : 1.0;
          cell.wall_s = wall.count();
          report.cells.push_back(std::move(cell));
        }
      }
    }
  }

  // FNV-1a over the deterministic cell fields; a string hashes as its
  // length, then its bytes.
  Fnv1a f;
  const auto hash_str = [&f](const std::string& s) {
    f.U64(s.size());
    f.Bytes(s.data(), s.size());
  };
  f.U64(report.users);
  f.U64(report.seed);
  f.U64(report.shards);
  f.U64(report.cells.size());
  for (const MatrixCell& c : report.cells) {
    hash_str(c.spec);
    hash_str(c.fault);
    hash_str(c.connection);
    hash_str(c.chunk);
    f.U64(c.fingerprint);
    f.U64(c.sessions);
    f.U64(c.ops);
    f.U64(c.failed_sessions);
    f.U64(c.failed_ops);
    f.U64(c.flows);
    f.U64(c.slow_start_restarts);
    f.U64(c.chunk_requests);
    f.Double(c.goodput_mb);
    f.Double(c.wasted_mb);
    f.Double(c.median_ttran_s);
    f.Double(c.session_success_rate);
    // wall_s intentionally excluded: the report fingerprint must be
    // byte-identical across thread counts and machines.
  }
  report.fingerprint = f.value();
  return report;
}

std::string ToJson(const MatrixReport& report) {
  std::string out = "{\n";
  out += Fmt("  \"users\": %zu,\n", report.users);
  out += Fmt("  \"seed\": %llu,\n",
             static_cast<unsigned long long>(report.seed));
  out += Fmt("  \"shards\": %u,\n", report.shards);
  out += Fmt("  \"fingerprint\": \"%016llx\",\n",
             static_cast<unsigned long long>(report.fingerprint));
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const MatrixCell& c = report.cells[i];
    out += "    {";
    out += Fmt("\"spec\": \"%s\", \"fault\": \"%s\", \"connection\": \"%s\", "
               "\"chunk\": \"%s\",\n",
               c.spec.c_str(), c.fault.c_str(), c.connection.c_str(),
               c.chunk.c_str());
    out += Fmt("     \"fingerprint\": \"%016llx\",\n",
               static_cast<unsigned long long>(c.fingerprint));
    out += Fmt("     \"sessions\": %llu, \"ops\": %llu, "
               "\"failed_sessions\": %llu, \"failed_ops\": %llu,\n",
               static_cast<unsigned long long>(c.sessions),
               static_cast<unsigned long long>(c.ops),
               static_cast<unsigned long long>(c.failed_sessions),
               static_cast<unsigned long long>(c.failed_ops));
    out += Fmt("     \"flows\": %llu, \"slow_start_restarts\": %llu, "
               "\"chunk_requests\": %llu,\n",
               static_cast<unsigned long long>(c.flows),
               static_cast<unsigned long long>(c.slow_start_restarts),
               static_cast<unsigned long long>(c.chunk_requests));
    out += Fmt("     \"goodput_mb\": %.17g, \"wasted_mb\": %.17g, "
               "\"median_ttran_s\": %.17g, \"session_success_rate\": %.17g,\n",
               c.goodput_mb, c.wasted_mb, c.median_ttran_s,
               c.session_success_rate);
    out += Fmt("     \"wall_s\": %.3f}%s\n", c.wall_s,
               i + 1 < report.cells.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

std::string RenderText(const MatrixReport& report) {
  std::string out;
  out += Fmt("matrix: %zu cells, fingerprint %016llx\n", report.cells.size(),
             static_cast<unsigned long long>(report.fingerprint));
  out += Fmt("  %-20s %-15s %-9s %-8s %10s %8s %9s %9s %8s\n", "spec",
             "fault", "conn", "chunk", "sessions", "success", "restarts",
             "ttran_ms", "wall_s");
  for (const MatrixCell& c : report.cells) {
    out += Fmt("  %-20s %-15s %-9s %-8s %10llu %7.3f%% %9llu %9.1f %8.2f\n",
               c.spec.c_str(), c.fault.c_str(), c.connection.c_str(),
               c.chunk.c_str(), static_cast<unsigned long long>(c.sessions),
               100.0 * c.session_success_rate,
               static_cast<unsigned long long>(c.slow_start_restarts),
               1e3 * c.median_ttran_s, c.wall_s);
  }
  return out;
}

}  // namespace mcloud::scenario
