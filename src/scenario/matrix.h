// What-if matrix runner: sweep spec × fault grid × connection strategy ×
// chunk policy through the sharded fleet executor and emit one comparable
// JSON report with per-cell fingerprints.
//
// Determinism contract: each cell executes through ExecuteFleet, whose
// output is byte-identical at every thread count, and the cell order is the
// fixed row-major axis order — so the whole report (and its fingerprint) is
// byte-identical for `--threads 1` and `--threads N`. Wall-clock fields are
// excluded from the fingerprints. Each spec's session plans are generated
// once (plans only — no trace emission, so memory scales with sessions, not
// records) and shared by all of its cells; paper-scale *analysis* of a spec
// goes through conformance's bounded slice walk instead
// (scenario/conformance.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/storage_service.h"
#include "fault/fault_config.h"

namespace mcloud::scenario {

struct MatrixOptions {
  /// Spec names (resolved against `specs_dir`) or spec file paths.
  std::vector<std::string> specs;
  /// Fault grids: "none", "frontend-flaky", "lossy-cell".
  std::vector<std::string> faults = {"none", "frontend-flaky"};
  /// Connection strategies (§4.3 connection-handling what-ifs): "baseline"
  /// (slow-start after idle, the measured service), "no-ssai" (idle
  /// connections keep their window), "paced" (SSAI off, first post-idle
  /// window paced).
  std::vector<std::string> connections = {"baseline", "no-ssai"};
  /// Chunk policies: "paper" (512 KB, one chunk per request), "chunk2m"
  /// (2 MiB chunks), "batch4" (512 KB, 4 chunks per request).
  std::vector<std::string> chunk_policies = {"paper"};
  /// Override every spec's mobile population (0 = spec-declared); PC-only
  /// users scale proportionally.
  std::size_t users = 0;
  std::uint64_t seed = 42;
  int threads = 0;  ///< wall-clock only; never affects the report bytes
  std::uint32_t shards = 8;
  std::string specs_dir;  ///< "" = DefaultSpecsDir()
};

/// One (spec, fault, connection, chunk) execution. All fields except
/// `wall_s` are deterministic and fingerprinted.
struct MatrixCell {
  std::string spec;
  std::string fault;
  std::string connection;
  std::string chunk;
  std::uint64_t fingerprint = 0;  ///< FingerprintServiceResult of the cell
  std::uint64_t sessions = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed_sessions = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t flows = 0;
  std::uint64_t slow_start_restarts = 0;
  std::uint64_t chunk_requests = 0;
  double goodput_mb = 0;
  double wasted_mb = 0;
  double median_ttran_s = 0;  ///< median per-chunk transfer time
  double session_success_rate = 1;
  double wall_s = 0;  ///< not fingerprinted
};

struct MatrixReport {
  std::size_t users = 0;  ///< the override (0 = per-spec populations)
  std::uint64_t seed = 42;
  std::uint32_t shards = 8;
  std::vector<MatrixCell> cells;  ///< fixed row-major axis order
  std::uint64_t fingerprint = 0;  ///< FNV-1a over every cell (minus wall_s)
};

/// Named fault-grid preset; throws Error on an unknown name.
[[nodiscard]] fault::FaultConfig FaultGrid(const std::string& name);

/// Apply a named connection strategy / chunk policy to a service config;
/// throws Error on an unknown name.
void ApplyConnectionStrategy(cloud::ServiceConfig& config,
                             const std::string& name);
void ApplyChunkPolicy(cloud::ServiceConfig& config, const std::string& name);

/// Run the full sweep. Loads + compiles each spec once, generates its
/// session plans once, then executes every cell through the sharded fleet.
[[nodiscard]] MatrixReport RunMatrix(const MatrixOptions& options);

/// One JSON object: axes, per-cell metrics + fingerprints, overall
/// fingerprint. Byte-identical at every thread count except `wall_s`
/// values, which CI strips before diffing (it compares the fingerprint
/// lines).
[[nodiscard]] std::string ToJson(const MatrixReport& report);

/// Compact per-cell table for the terminal.
[[nodiscard]] std::string RenderText(const MatrixReport& report);

}  // namespace mcloud::scenario
