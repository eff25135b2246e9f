// Shared plumbing for the what-if mains.
//
// Each what-if binary pulls one lever the paper proposes (deferral, a
// front-end cache, larger chunks, ...) on a synthetic workload and prints
// the before/after series as plain aligned text. The paper's own figures
// and tables are printed by `mcloudctl validate` (validate/paper_report.h).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string_view>

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
inline workload::Workload StandardWorkload(int argc, char** argv) {
  workload::WorkloadConfig cfg;
  const char* users = Positional(argc, argv, 1);
  const char* seed = Positional(argc, argv, 2);
  cfg.population.mobile_users =
      users ? std::strtoul(users, nullptr, 10) : 6000;
  cfg.population.pc_only_users = cfg.population.mobile_users / 3;
  cfg.seed = seed ? std::strtoull(seed, nullptr, 10) : 42;
  cfg.threads = ParseThreads(argc, argv);
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
