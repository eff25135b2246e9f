#include "cloud/fleet.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <numeric>
#include <utility>

#include "util/error.h"
#include "util/merge.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mcloud::cloud {

namespace {

// Shard seed derivation salts. Mixed into the base seeds only when
// shards > 1, so the single-shard passthrough reproduces a plain
// StorageService::Execute bit for bit. Changing either constant changes
// every sharded sample (it is a reseed, not a semantic change).
constexpr std::uint64_t kShardSeedSalt = 0x5EED5A17C0DE0001ULL;
constexpr std::uint64_t kShardFaultSalt = 0xFA017A17C0DE0002ULL;

double WallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class Fnv {
 public:
  void MixU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void MixDouble(double v) { MixU64(std::bit_cast<std::uint64_t>(v)); }
  void MixBytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

struct ShardRun {
  ServiceResult result;
  /// Canonical global ranks of this shard's sessions, ascending — index l
  /// holds the rank of the shard's l-th executed session.
  std::vector<std::uint32_t> ranks;
  double wall_s = 0;
};

void SumFaultStats(FaultStats& into, const FaultStats& from) {
  into.sessions += from.sessions;
  into.failed_sessions += from.failed_sessions;
  into.ops += from.ops;
  into.failed_ops += from.failed_ops;
  into.chunk_attempts += from.chunk_attempts;
  into.chunk_timeouts += from.chunk_timeouts;
  into.chunk_server_failures += from.chunk_server_failures;
  into.chunk_disconnects += from.chunk_disconnects;
  into.retries += from.retries;
  into.failovers += from.failovers;
  into.relocations += from.relocations;
  into.hedges_issued += from.hedges_issued;
  into.hedge_wins += from.hedge_wins;
  into.resume_skipped_chunks += from.resume_skipped_chunks;
  into.goodput_bytes += from.goodput_bytes;
  into.wasted_bytes += from.wasted_bytes;
}

ShardTelemetry TelemetryFor(std::uint32_t shard, const ServiceResult& r,
                            double wall_s) {
  ShardTelemetry t;
  t.shard = shard;
  t.sessions = r.session_outcomes.size();
  t.queue = r.queue;
  t.wall_s = wall_s;
  return t;
}

}  // namespace

std::uint32_t ShardOf(std::uint64_t user_id, std::uint32_t shards) {
  return static_cast<std::uint32_t>(SplitMix64(user_id) % shards);
}

FleetResult ExecuteFleet(
    const FleetConfig& config,
    std::span<const workload::SessionPlan> sessions) {
  MCLOUD_REQUIRE(config.shards >= 1, "need at least one shard");

  if (config.shards == 1) {
    // Serial passthrough: same seeds, same single event queue, same output
    // as the pre-sharding code path (pinned by the zero-fault goldens).
    const auto t0 = std::chrono::steady_clock::now();
    StorageService service(config.service);
    FleetResult out;
    out.result = service.Execute(sessions);
    out.shards.push_back(TelemetryFor(0, out.result, WallSeconds(t0)));
    return out;
  }

  const std::uint32_t k = config.shards;

  // Canonical execution order of the whole fleet: the order a single event
  // queue would run these sessions — stable sort by start time (the queue
  // breaks time ties by insertion order). rank[i] is session i's position
  // in that order.
  std::vector<std::uint32_t> order(sessions.size());
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sessions[a].start < sessions[b].start;
                   });
  std::vector<std::uint32_t> rank(sessions.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;

  // Partition by user hash, preserving input order within each shard (so a
  // shard's event queue sees the same insertion-order tie-breaks it would
  // in the serial run).
  std::vector<std::vector<workload::SessionPlan>> shard_plans(k);
  std::vector<std::vector<std::uint32_t>> shard_ranks(k);
  std::vector<std::size_t> shard_ops(k, 0);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const std::uint32_t s = ShardOf(sessions[i].user_id, k);
    shard_plans[s].push_back(sessions[i]);
    shard_ranks[s].push_back(rank[i]);
    shard_ops[s] += sessions[i].ops.size();
  }
  // A shard executes its sessions in (start, insertion) order, which is
  // exactly ascending canonical rank — rank is itself ordered by (start,
  // input index). Sorting the rank list therefore yields "rank of the
  // shard's l-th executed session" without re-deriving the sort.
  for (auto& ranks : shard_ranks) std::sort(ranks.begin(), ranks.end());

  // Run every shard on its own service instance. Seeds (and the fault
  // schedule's seed) are shard-derived via ForStream-style stateless
  // hashing, so shard streams are disjoint and independent of scheduling.
  // Threads claim the shards heaviest first — most planned file operations,
  // ties by index — so a heavy shard starts at once instead of queueing
  // behind a neighbour; results land by shard index either way.
  std::vector<std::uint32_t> schedule(k);
  std::iota(schedule.begin(), schedule.end(), 0U);
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return shard_ops[a] > shard_ops[b];
                   });
  std::vector<ShardRun> runs(k);
  ThreadPool pool(config.threads);
  RunTasks(&pool, k, [&](std::size_t j) {
    const std::size_t s = schedule[j];
    ServiceConfig cfg = config.service;
    cfg.seed = SplitMix64(SplitMix64(config.service.seed) ^
                          (kShardSeedSalt + SplitMix64(s + 1)));
    cfg.faults.seed = SplitMix64(SplitMix64(config.service.faults.seed) ^
                                 (kShardFaultSalt + SplitMix64(s + 1)));
    const auto t0 = std::chrono::steady_clock::now();
    StorageService service(cfg);
    runs[s].result = service.Execute(shard_plans[s]);
    runs[s].wall_s = WallSeconds(t0);
    runs[s].ranks = std::move(shard_ranks[s]);
  });

  FleetResult out;
  ServiceResult& m = out.result;
  out.shards.reserve(k);

  // --- Order-insensitive aggregates: elementwise sums (peak pending is a
  // max — it answers "how big must one shard's slot pool be").
  m.front_ends.resize(config.service.front_ends);
  std::size_t total_chunks = 0;
  std::size_t total_sessions = 0;
  for (std::uint32_t s = 0; s < k; ++s) {
    const ServiceResult& r = runs[s].result;
    out.shards.push_back(TelemetryFor(s, r, runs[s].wall_s));
    total_chunks += r.chunk_perf.size();
    total_sessions += r.session_outcomes.size();
    m.flows += r.flows;
    m.slow_start_restarts += r.slow_start_restarts;
    m.skipped_uploads += r.skipped_uploads;
    m.missing_chunk_serves += r.missing_chunk_serves;
    m.metadata.store_queries += r.metadata.store_queries;
    m.metadata.dedup_hits += r.metadata.dedup_hits;
    m.metadata.retrieve_queries += r.metadata.retrieve_queries;
    m.metadata.retrieve_misses += r.metadata.retrieve_misses;
    SumFaultStats(m.faults, r.faults);
    MCLOUD_REQUIRE(r.front_ends.size() == m.front_ends.size(),
                   "shard front-end fleet size mismatch");
    for (std::size_t f = 0; f < r.front_ends.size(); ++f) {
      FrontEndStats& into = m.front_ends[f];
      const FrontEndStats& from = r.front_ends[f];
      into.file_operations += from.file_operations;
      into.chunk_stores += from.chunk_stores;
      into.chunk_retrievals += from.chunk_retrievals;
      into.bytes_stored += from.bytes_stored;
      into.bytes_served += from.bytes_served;
      into.chunk_dedup_hits += from.chunk_dedup_hits;
      into.missing_chunks += from.missing_chunks;
    }
    m.queue.scheduled += r.queue.scheduled;
    m.queue.executed += r.queue.executed;
    m.queue.cancelled += r.queue.cancelled;
    m.queue.peak_pending = std::max(m.queue.peak_pending,
                                    r.queue.peak_pending);
  }
  MCLOUD_REQUIRE(total_sessions == sessions.size(),
                 "shard merge lost a session");

  // --- Globally ordered streams: stable k-way merges on the pool (ties go
  // to the lower shard index; within a shard order is preserved). One
  // stream at a time, so the peak holds one stream's input and output.
  {
    std::vector<std::vector<LogRecord>> log_runs;
    log_runs.reserve(k);
    for (auto& run : runs) log_runs.push_back(std::move(run.result.logs));
    m.logs = MergeSortedRuns(std::move(log_runs), LogRecordTimeOrder, &pool);
  }
  {
    std::vector<std::vector<RetrievalEvent>> ret_runs;
    ret_runs.reserve(k);
    for (auto& run : runs)
      ret_runs.push_back(std::move(run.result.retrievals));
    m.retrievals = MergeSortedRuns(
        std::move(ret_runs),
        [](const RetrievalEvent& a, const RetrievalEvent& b) {
          return a.at < b.at;
        },
        &pool);
  }

  // --- Session-indexed streams: interleave by canonical rank. Each rank
  // maps to exactly one (shard, local ordinal); ranks 0..N-1 in order are
  // the outcomes and chunk groups the serial fleet run would emit.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> where(total_sessions);
  std::vector<std::vector<std::size_t>> chunk_offsets(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    const ShardRun& run = runs[s];
    for (std::uint32_t l = 0; l < run.ranks.size(); ++l)
      where[run.ranks[l]] = {s, l};
    // Chunk groups are contiguous per session (sessions execute atomically
    // within a shard); prefix-sum the per-session counts into offsets.
    std::vector<std::size_t>& off = chunk_offsets[s];
    off.assign(run.result.session_outcomes.size() + 1, 0);
    for (const ChunkPerf& p : run.result.chunk_perf) ++off[p.session_seq + 1];
    for (std::size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
  }
  // first_chunk[r]: where rank r's chunk group starts in the merged stream.
  std::vector<std::size_t> first_chunk(total_sessions + 1, 0);
  for (std::uint32_t r = 0; r < total_sessions; ++r) {
    const auto [s, l] = where[r];
    first_chunk[r + 1] = first_chunk[r] + chunk_offsets[s][l + 1] -
                         chunk_offsets[s][l];
  }
  m.session_outcomes.resize(total_sessions);
  m.chunk_perf.resize(total_chunks);
  // One rank range per thread, cut where the chunks before it reach an
  // equal share of all chunks; each range writes only its own slots.
  const std::size_t parts = ShardCount(pool, total_sessions);
  RunTasks(&pool, parts, [&](std::size_t part) {
    const auto cut = [&](std::size_t p) -> std::uint32_t {
      if (p == parts) return static_cast<std::uint32_t>(total_sessions);
      return static_cast<std::uint32_t>(
          std::lower_bound(first_chunk.begin(), first_chunk.end() - 1,
                           total_chunks * p / parts) -
          first_chunk.begin());
    };
    for (std::uint32_t r = cut(part), end = cut(part + 1); r < end; ++r) {
      const auto [s, l] = where[r];
      const ServiceResult& from = runs[s].result;
      m.session_outcomes[r] = from.session_outcomes[l];
      ChunkPerf* to = m.chunk_perf.data() + first_chunk[r];
      for (std::size_t i = chunk_offsets[s][l]; i < chunk_offsets[s][l + 1];
           ++i, ++to) {
        *to = from.chunk_perf[i];
        to->session_seq = r;  // local ordinal -> canonical global rank
      }
    }
  });
  return out;
}

std::uint64_t FingerprintServiceResult(const ServiceResult& r) {
  Fnv f;
  f.MixU64(r.logs.size());
  for (const LogRecord& l : r.logs) {
    f.MixU64(static_cast<std::uint64_t>(l.timestamp));
    f.MixU64(static_cast<std::uint64_t>(l.device_type));
    f.MixU64(l.device_id);
    f.MixU64(l.user_id);
    f.MixU64(static_cast<std::uint64_t>(l.request_type));
    f.MixU64(static_cast<std::uint64_t>(l.direction));
    f.MixU64(l.data_volume);
    f.MixDouble(l.processing_time);
    f.MixDouble(l.server_time);
    f.MixDouble(l.avg_rtt);
    f.MixU64(l.proxied ? 1 : 0);
    f.MixU64(static_cast<std::uint64_t>(l.outcome));
    f.MixU64(l.attempt);
  }
  f.MixU64(r.retrievals.size());
  for (const RetrievalEvent& e : r.retrievals) {
    f.MixU64(static_cast<std::uint64_t>(e.at));
    f.MixU64(e.user_id);
    f.MixBytes(e.file_md5.bytes.data(), e.file_md5.bytes.size());
    f.MixU64(e.size);
    f.MixU64(e.shared ? 1 : 0);
  }
  f.MixU64(r.chunk_perf.size());
  for (const ChunkPerf& p : r.chunk_perf) {
    f.MixU64(static_cast<std::uint64_t>(p.device));
    f.MixU64(static_cast<std::uint64_t>(p.direction));
    f.MixU64(p.bytes);
    f.MixDouble(p.ttran);
    f.MixDouble(p.tsrv);
    f.MixDouble(p.tclt);
    f.MixDouble(p.idle_before);
    f.MixDouble(p.rto_at_idle);
    f.MixU64(p.restarted ? 1 : 0);
    f.MixDouble(p.rtt);
    f.MixU64(p.proxied ? 1 : 0);
    f.MixU64(p.attempt);
    f.MixU64(p.session_seq);
  }
  f.MixU64(r.session_outcomes.size());
  for (const SessionOutcome& o : r.session_outcomes) {
    f.MixU64(static_cast<std::uint64_t>(o.start));
    f.MixU64(static_cast<std::uint64_t>(o.device));
    f.MixU64(o.user_id);
    f.MixU64(o.ops);
    f.MixU64(o.failed_ops);
  }
  f.MixU64(r.metadata.store_queries);
  f.MixU64(r.metadata.dedup_hits);
  f.MixU64(r.metadata.retrieve_queries);
  f.MixU64(r.metadata.retrieve_misses);
  f.MixU64(r.front_ends.size());
  for (const FrontEndStats& s : r.front_ends) {
    f.MixU64(s.file_operations);
    f.MixU64(s.chunk_stores);
    f.MixU64(s.chunk_retrievals);
    f.MixU64(s.bytes_stored);
    f.MixU64(s.bytes_served);
    f.MixU64(s.chunk_dedup_hits);
    f.MixU64(s.missing_chunks);
  }
  f.MixU64(r.faults.sessions);
  f.MixU64(r.faults.failed_sessions);
  f.MixU64(r.faults.ops);
  f.MixU64(r.faults.failed_ops);
  f.MixU64(r.faults.chunk_attempts);
  f.MixU64(r.faults.chunk_timeouts);
  f.MixU64(r.faults.chunk_server_failures);
  f.MixU64(r.faults.chunk_disconnects);
  f.MixU64(r.faults.retries);
  f.MixU64(r.faults.failovers);
  f.MixU64(r.faults.relocations);
  f.MixU64(r.faults.hedges_issued);
  f.MixU64(r.faults.hedge_wins);
  f.MixU64(r.faults.resume_skipped_chunks);
  f.MixU64(r.faults.goodput_bytes);
  f.MixU64(r.faults.wasted_bytes);
  f.MixU64(r.flows);
  f.MixU64(r.slow_start_restarts);
  f.MixU64(r.skipped_uploads);
  f.MixU64(r.missing_chunk_serves);
  f.MixU64(r.queue.scheduled);
  f.MixU64(r.queue.executed);
  f.MixU64(r.queue.cancelled);
  f.MixU64(r.queue.peak_pending);
  return f.Value();
}

}  // namespace mcloud::cloud
