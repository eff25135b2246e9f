// Open-loop trace replay against a live `mcloudd` (DESIGN.md §11).
//
// BuildReplayPlan turns a time-sorted Table 1 trace into one wire request
// per record — POST /fileop for file operations, PUT /chunk for chunk
// stores, GET /chunk/<md5> for chunk retrievals — with content identity
// synthesized deterministically so that (a) dedup happens at the same
// places on every run and (b) the client can verify every retrieved byte.
// Trace timestamps become send deadlines, optionally rescaled to a target
// aggregate request rate.
//
// ExecuteReplay drives the plan open-loop: requests are due at their
// scheduled instant regardless of earlier completions (PBench-style), so
// server slowdowns surface as queueing delay in the measured latency
// rather than silently stretching the run. N workers each own one
// connection (persistent) or reconnect per request.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/log_record.h"
#include "util/histogram.h"
#include "util/md5.h"
#include "util/units.h"

namespace mcloud::net {

enum class PlanKind : std::uint8_t {
  kFileOpStore = 0,
  kFileOpRetrieve = 1,
  kChunkPut = 2,
  kChunkGet = 3,
};

/// One wire request. For kChunkGet, (content_seed, chunk_index, bytes)
/// name the *referenced* chunk: the worker re-synthesizes its body to form
/// the URL md5 and to verify the response.
struct PlanItem {
  Seconds send_at = 0;  ///< offset from replay start, already rate-scaled
  PlanKind kind = PlanKind::kFileOpStore;
  std::uint64_t user_id = 0;
  std::uint64_t device_id = 0;
  DeviceType device_type = DeviceType::kAndroid;
  std::uint64_t content_seed = 0;
  Bytes bytes = 0;  ///< fileop: file size; put/get: chunk body size
  std::uint32_t chunk_index = 0;
  bool expect_missing = false;  ///< retrieve of content never stored here
};

struct ReplayPlanOptions {
  /// Target aggregate request rate; 0 replays at original trace speed.
  double target_qps = 0;
  /// Cap chunk-body sizes (request *count* is unchanged); 0 = trace sizes.
  /// CI uses a small cap so loopback runs finish quickly on one core.
  Bytes max_chunk_bytes = 0;
  /// Namespace for synthesized content seeds.
  std::uint64_t seed_base = 0x6d636c6f7564ull;
  /// Every `popular_every`-th stored file draws its seed from a pool of
  /// `popular_seeds` — identical content across users, exercising file- and
  /// chunk-level dedup exactly like the paper's URL-shared popular files.
  std::size_t popular_seeds = 16;
  std::size_t popular_every = 8;
};

struct ReplayPlan {
  std::vector<PlanItem> items;  ///< sorted by send_at
  Seconds duration = 0;         ///< scheduled span (last send_at)
  std::uint64_t fileops = 0;
  std::uint64_t chunk_puts = 0;
  std::uint64_t chunk_gets = 0;
  Bytes put_bytes = 0;
};

/// `trace` must be sorted by LogRecordTimeOrder (trace files are).
[[nodiscard]] ReplayPlan BuildReplayPlan(std::span<const LogRecord> trace,
                                         const ReplayPlanOptions& options);

struct ReplayOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connections = 4;
  /// false = open a fresh connection per request (the PR 5 what-if axis).
  bool persistent = true;
  /// MD5-verify retrieved chunk bodies and PUT echo tags.
  bool verify = true;
  /// Per-socket receive timeout.
  Seconds io_timeout = 30.0;
};

struct ReplayReport {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t http_errors = 0;       ///< non-2xx responses
  std::uint64_t transport_errors = 0;  ///< connect/send/recv/parse failures
  std::uint64_t verify_failures = 0;
  std::uint64_t dedup_hits = 0;      ///< server answered PUT with dedup:true
  std::uint64_t index_serves = 0;    ///< GET served from the chunk index
  std::uint64_t replica_serves = 0;  ///< GET served via the replica path
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
  Seconds wall_seconds = 0;
  double achieved_qps = 0;
  /// log10(latency seconds), latency measured from the *scheduled* send
  /// instant to response completion (open-loop: includes queueing delay).
  Histogram latency_log10{-7.0, 3.0, 200};
  /// Chunk requests only (the T_chunk-comparable population).
  Histogram chunk_latency_log10{-7.0, 3.0, 200};

  [[nodiscard]] Seconds LatencyQuantile(double q) const;
  [[nodiscard]] Seconds ChunkLatencyQuantile(double q) const;
  /// Latency histogram + quantiles as JSON (the CI artifact payload).
  [[nodiscard]] std::string ToJson() const;
};

/// Drive the plan against a live server. Blocks until every request has
/// been answered (or failed). Throws Error only on setup failures (e.g.
/// nothing listening); per-request failures are counted in the report.
[[nodiscard]] ReplayReport ExecuteReplay(const ReplayPlan& plan,
                                         const ReplayOptions& options);

/// Check that a live run produced exactly the records the input trace
/// implies: total count and per-(user, request type, direction) counts
/// match 1:1. Returns nullopt on a match, else a human-readable mismatch.
[[nodiscard]] std::optional<std::string> LiveLogMatchesTrace(
    std::span<const LogRecord> trace, std::span<const LogRecord> live);

/// Load a trace for replay: a directory is opened as a partitioned
/// MCLOGv02 trace (out-of-core pipeline output), any file through
/// ReadTrace (v2, CSV or v1).
[[nodiscard]] std::vector<LogRecord> LoadTraceForReplay(
    const std::filesystem::path& path);

}  // namespace mcloud::net
