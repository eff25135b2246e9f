// Shared plumbing for the what-if mains.
//
// Each what-if binary pulls one lever the paper proposes (deferral, a
// front-end cache, larger chunks, ...) on a synthetic workload and prints
// the before/after series as plain aligned text. Each reads its numbers as
// `--flag value` flags through tools::Parse (tools/args.h) and takes no
// positional: an unknown flag, a positional or a malformed number exits 2
// naming it, so a main reads every number before its first line. The
// paper's own figures and tables are printed by `mcloudctl validate`
// (validate/paper_report.h).
#pragma once

#include <cstdio>

#include "args.h"
#include "workload/generator.h"

namespace mcloud::bench {

/// The standard bench workload from `--users` mobile users (default 6000,
/// about 2M records a week), a third as many PC-only users, `--seed` (42)
/// and `--threads` (0 = hardware concurrency; the thread count never
/// changes any bench's output, only its wall clock).
inline workload::WorkloadConfig WorkloadFrom(const tools::Args& args) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = args.GetU64("users", 6000);
  cfg.population.pc_only_users = cfg.population.mobile_users / 3;
  cfg.seed = args.GetU64("seed", 42);
  cfg.threads = args.GetU64<int>("threads", 0);
  return cfg;
}

/// Generates the week of `cfg`, saying which it is.
inline workload::Workload StandardWorkload(
    const workload::WorkloadConfig& cfg) {
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

}  // namespace mcloud::bench
