// Sharded parallel execution of a session fleet (conservative parallel DES).
//
// Sessions in this simulator never interact across users: flows do not
// contend (front-end capacity is not the bottleneck the paper studies), the
// metadata server's cross-user effects are statistical, and every random
// draw a session consumes is derived from its own identity. That makes the
// fleet embarrassingly partitionable — the classic conservative-parallel
// discrete-event setup where the lookahead between partitions is infinite.
//
// Determinism contract (the load-bearing part): sessions are partitioned
// into a FIXED number of shards K by a hash of the user id. K is independent
// of the thread count — threads only decide how many shards run at once,
// each thread claiming the heaviest shard left (most planned file
// operations, ties by index) — so `--threads 1`, `--threads 4`, and
// `--threads <hw>` execute byte-identical per-shard simulations, and the
// merge below (a stable k-way merge cut into parts at splitter keys, and a
// rank-ordered interleave cut into rank ranges, both on the same pool)
// reassembles byte-identical fleet output. Each shard runs a private
// StorageService + EventQueue with a shard-derived seed (and shard-derived
// fault-schedule seed), so no shard ever observes another's RNG stream or
// health timeline.
//
// With shards == 1 the executor degenerates to a single plain
// StorageService::Execute over the unpartitioned input — exactly the
// pre-sharding semantics (and the pinned bit-identity goldens).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/storage_service.h"
#include "workload/session_plan.h"

namespace mcloud::cloud {

struct FleetConfig {
  ServiceConfig service{};
  /// Fixed shard count; the unit of determinism. 1 = serial passthrough.
  std::uint32_t shards = 8;
  /// Worker threads (<= shards are ever active); 0 = hardware concurrency.
  /// Never affects output, only wall-clock.
  int threads = 0;
};

/// Per-shard observability surfaced into the validate manifest.
struct ShardTelemetry {
  std::uint32_t shard = 0;
  std::uint64_t sessions = 0;
  EventQueue::Stats queue;  ///< event-core counters for the shard's run
  double wall_s = 0;        ///< wall-clock of the shard's Execute()
};

struct FleetResult {
  /// Merged, canonically ordered result — byte-identical to what a single
  /// StorageService with the same per-shard seeds would produce, for every
  /// thread count.
  ServiceResult result;
  std::vector<ShardTelemetry> shards;
};

/// Shard assignment for a user: SplitMix64(user_id) % shards. Hashing (vs
/// modulo of the raw id) decorrelates the partition from any structure in
/// id assignment, and is the stable public contract tests pin.
[[nodiscard]] std::uint32_t ShardOf(std::uint64_t user_id,
                                    std::uint32_t shards);

/// Execute `sessions` across `config.shards` deterministic shards on up to
/// `config.threads` threads, heaviest shards first, and merge per-chunk /
/// per-flow / per-session results on the same threads into canonical order
/// (the order a serial event queue over the whole fleet would have
/// produced).
[[nodiscard]] FleetResult ExecuteFleet(
    const FleetConfig& config, std::span<const workload::SessionPlan> sessions);

/// FNV-1a fingerprint over every deterministic field of a ServiceResult
/// (floating-point values hashed by bit pattern, so "equal" means
/// bit-identical). Used by the determinism goldens and the validate
/// manifest; excludes nothing except struct padding.
[[nodiscard]] std::uint64_t FingerprintServiceResult(const ServiceResult& r);

}  // namespace mcloud::cloud
