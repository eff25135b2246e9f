// Spec self-conformance: generate the world a WorkloadSpec describes, run
// the §3 analysis pipeline over it, and check the spec's *own* declared
// statistical targets ([targets] in the spec text) with the validate-layer
// tolerance machinery. This is the harness behind `mcloudctl conform` and
// tests/test_scenario.cc — every shipped spec must pass itself, and the
// negative-control spec (targets contradicting parameters) must fail on
// exactly the contradicted checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/workload_spec.h"
#include "validate/figure_checks.h"

namespace mcloud::scenario {

struct ConformanceOptions {
  std::uint64_t seed = 42;
  int threads = 0;  ///< 0 = hardware concurrency; results thread-invariant
  /// Override the spec's mobile population (0 = use the spec's); the
  /// PC-only population scales proportionally. Lets tests/CI run paper2016
  /// at 4k users under the ctest budget.
  std::size_t users_override = 0;
  /// Approximate resident budget (MB) of generation + analysis: it sizes
  /// the spill buffer (workload::SpillBufferBytes), and each slice is
  /// walked as it seals, which lets specs declare paper-scale populations.
  /// Every budget gives the same report.
  std::size_t max_memory_mb = 2048;
  /// The directory that also receives the partitioned trace, created (with
  /// its parents) when it does not exist; empty = write nothing.
  std::string spill_dir;
};

struct ConformanceRun {
  std::string spec_name;
  std::size_t users = 0;
  std::size_t sessions = 0;  ///< re-sessionized mobile sessions analyzed
  /// FingerprintReport of the analysis report — the determinism handle
  /// (thread- and engine-invariant).
  std::uint64_t report_fingerprint = 0;
  /// One outcome per declared target, in spec-grammar order.
  std::vector<validate::CheckOutcome> outcomes;

  [[nodiscard]] bool AllPassed() const {
    for (const auto& o : outcomes)
      if (!o.passed) return false;
    return true;
  }
};

/// Generate + analyze + evaluate the spec's declared targets.
[[nodiscard]] ConformanceRun RunConformance(const WorkloadSpec& spec,
                                            const ConformanceOptions& options);

/// Human-readable per-check table with a PASS/FAIL verdict line.
[[nodiscard]] std::string RenderText(const ConformanceRun& run);

/// Machine-readable report (one JSON object).
[[nodiscard]] std::string ToJson(const ConformanceRun& run);

}  // namespace mcloud::scenario
