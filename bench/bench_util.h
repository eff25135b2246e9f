// Shared plumbing for the figure/table reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it
// builds (or reuses) a synthetic workload, runs the corresponding analysis,
// and prints the series the paper plots, with the paper's published values
// alongside where they exist. Output is plain aligned text so that
// `for b in build/bench/*; do $b; done` reads as a lab notebook.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include <string_view>

#include "core/pipeline.h"
#include "util/summary.h"
#include "workload/generator.h"

namespace mcloud::bench {

/// `--threads N` anywhere on the command line (0 = hardware concurrency,
/// the default). Thread count never changes any bench's output, only its
/// wall-clock — every parallel path in the library is deterministic.
inline int ParseThreads(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string_view(argv[i]) == "--threads")
      return static_cast<int>(std::strtol(argv[i + 1], nullptr, 10));
  return 0;
}

/// The idx-th (1-based) positional argument, skipping `--flag value`
/// pairs, so `bench 4000 --threads 2` and `bench --threads 2 4000` both
/// read 4000 as the first positional.
inline const char* Positional(int argc, char** argv, int idx) {
  int seen = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--", 0) == 0) {
      ++i;  // skip the flag's value
      continue;
    }
    if (++seen == idx) return argv[i];
  }
  return nullptr;
}

/// Standard bench workload: ~6k mobile users for a week (≈2M records),
/// overridable via positional args (users, seed) plus --threads N.
inline workload::WorkloadConfig StandardConfig(int argc, char** argv) {
  workload::WorkloadConfig cfg;
  const char* users = Positional(argc, argv, 1);
  const char* seed = Positional(argc, argv, 2);
  cfg.population.mobile_users =
      users ? std::strtoul(users, nullptr, 10) : 6000;
  cfg.population.pc_only_users = cfg.population.mobile_users / 3;
  cfg.seed = seed ? std::strtoull(seed, nullptr, 10) : 42;
  cfg.threads = ParseThreads(argc, argv);
  return cfg;
}

inline workload::Workload StandardWorkload(int argc, char** argv) {
  const workload::WorkloadConfig cfg = StandardConfig(argc, argv);
  std::printf("# workload: %zu mobile users, %zu PC-only, seed %llu\n",
              cfg.population.mobile_users, cfg.population.pc_only_users,
              static_cast<unsigned long long>(cfg.seed));
  return workload::WorkloadGenerator(cfg).Generate();
}

inline void Header(const char* experiment, const char* caption) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", experiment, caption);
  std::printf("==============================================================="
              "=================\n");
}

/// Print a CDF of `samples` evaluated at `grid` points.
inline void PrintCdf(const char* label, std::span<const double> samples,
                     std::span<const double> grid, const char* unit) {
  if (samples.empty()) {
    std::printf("%-22s (no samples)\n", label);
    return;
  }
  const Ecdf ecdf(std::vector<double>(samples.begin(), samples.end()));
  std::printf("%-22s n=%zu  median=%.3g %s\n", label, samples.size(),
              ecdf.Median(), unit);
  std::printf("  %10s  %8s\n", unit, "CDF");
  for (double x : grid)
    std::printf("  %10.3g  %8.4f\n", x, ecdf.Evaluate(x));
}

/// Print percentile summary of a sample.
inline void PrintPercentiles(const char* label,
                             std::span<const double> samples,
                             const char* unit) {
  if (samples.empty()) {
    std::printf("%-24s (no samples)\n", label);
    return;
  }
  const std::vector<double> cuts = {10, 25, 50, 75, 90, 99};
  const auto v = Percentiles(samples, cuts);
  std::printf("%-24s n=%-8zu p10=%-8.3g p25=%-8.3g p50=%-8.3g p75=%-8.3g "
              "p90=%-8.3g p99=%-8.3g %s\n",
              label, samples.size(), v[0], v[1], v[2], v[3], v[4], v[5],
              unit);
}

inline void PaperVsMeasured(const char* what, double paper, double measured,
                            const char* unit = "") {
  std::printf("  %-46s paper=%-10.4g measured=%-10.4g %s\n", what, paper,
              measured, unit);
}

}  // namespace mcloud::bench

#include "cloud/fleet.h"
#include "cloud/storage_service.h"

namespace mcloud::bench {

/// Standard §4 workload: `flows` single-file sessions (78% Android) split
/// between uploads and downloads, executed through the sharded fleet
/// executor (metadata dedup + TCP substrate; `--threads N` to spread the
/// shards, output identical for every thread count). Mirrors the paper's
/// packet-trace collection at one front-end (40,386 flows).
inline cloud::ServiceResult Section4Result(
    int argc, char** argv, const cloud::ServiceConfig& config = {}) {
  const char* a1 = Positional(argc, argv, 1);
  const char* a2 = Positional(argc, argv, 2);
  const std::size_t flows = a1 ? std::strtoul(a1, nullptr, 10) : 4000;
  const std::uint64_t seed = a2 ? std::strtoull(a2, nullptr, 10) : 7;
  std::printf("# service simulation: %zu flows, seed %llu\n", flows,
              static_cast<unsigned long long>(seed));

  Rng rng(seed);
  std::vector<workload::SessionPlan> plans;
  plans.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    workload::SessionPlan s;
    s.user_id = i + 1;
    s.device_id = i + 1;
    s.device_type = rng.Bernoulli(0.784) ? DeviceType::kAndroid
                                         : DeviceType::kIos;
    s.start = kTraceStart + static_cast<UnixSeconds>(i * 30);
    workload::FileOp op;
    // Uploads: typical photo-batch payloads; downloads: larger objects.
    if (rng.Bernoulli(0.6)) {
      op.direction = Direction::kStore;
      op.size = FromMB(1.0 + rng.ExponentialMean(4.0));
    } else {
      op.direction = Direction::kRetrieve;
      op.size = FromMB(2.0 + rng.ExponentialMean(20.0));
    }
    s.ops.push_back(op);
    plans.push_back(s);
  }
  cloud::FleetConfig fleet_cfg;
  fleet_cfg.service = config;
  fleet_cfg.threads = ParseThreads(argc, argv);
  return cloud::ExecuteFleet(fleet_cfg, plans).result;
}

}  // namespace mcloud::bench
