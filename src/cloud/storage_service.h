// End-to-end execution of session plans through the full service stack:
// metadata server (file-level dedup) → front-end selection → chunked
// HTTP-over-TCP transfer (tcp::FlowSimulator) → request logs.
//
// This is the mechanistic backend behind every §4 figure: chunk transfer
// times, sending-window estimates, idle-time dissection, and slow-start
// restarts all *emerge* from the TCP model given the client behaviour
// distributions, rather than being sampled from the paper's result curves.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cloud/chunker.h"
#include "cloud/client_model.h"
#include "cloud/front_end_server.h"
#include "cloud/metadata_server.h"
#include "fault/fault_config.h"
#include "fault/fault_schedule.h"
#include "fault/retry_policy.h"
#include "sim/event_queue.h"
#include "tcp/flow.h"
#include "workload/session_plan.h"

namespace mcloud::cloud {

struct ServiceConfig {
  std::uint64_t seed = 7;
  std::uint32_t front_ends = 4;
  Bytes chunk_size = kChunkSize;
  /// What-if knobs (§4.3): enable server window scaling, disable slow-start
  /// after idle, or batch several chunks per HTTP request.
  bool server_window_scaling = false;
  Bytes scaled_server_window = 1 * kMiB;
  bool ssai_enabled = true;
  /// Pace the first post-idle window instead of bursting (only meaningful
  /// with ssai_enabled = false); the paper's recommended alternative [28].
  bool pace_after_idle = false;
  /// Tail-loss probability of un-paced post-idle bursts (SSAI off).
  double post_idle_burst_loss_prob = 0.0;
  /// Background per-round loss probability (fast-retransmit recovery).
  double random_loss_prob = 0.0;
  std::uint32_t batch_chunks = 1;  ///< chunks per HTTP request (1 = paper)
  /// Retrieval mix: probability that a retrieve op targets popular shared
  /// content (URL sharing, §3.1.3) rather than the user's own uploads.
  double shared_content_prob = 0.35;
  std::size_t popular_contents = 512;
  double zipf_exponent = 0.9;
  ServerBehavior server{};
  /// Fault injection. With every rate at zero (`faults.Any() == false`) the
  /// service runs the exact fault-free code path and RNG stream — output is
  /// bit-identical to a build without the resilience layer.
  fault::FaultConfig faults{};
  /// Client-side resilience; consulted only when faults are active.
  fault::RetryPolicy retry{};
};

/// Per-chunk performance sample (the unit of the §4 analyses). The one-byte
/// and four-byte fields lead, so the sample packs into 72 bytes.
struct ChunkPerf {
  DeviceType device = DeviceType::kAndroid;
  Direction direction = Direction::kStore;
  bool restarted = false;
  bool proxied = false;
  std::uint32_t attempt = 1;  ///< which try delivered the chunk (1-based)
  /// Ordinal of the owning session in this run's execution order (== index
  /// into ServiceResult::session_outcomes). The sharded fleet executor
  /// rewrites it to the canonical global rank when merging shards.
  std::uint32_t session_seq = 0;
  Bytes bytes = 0;
  Seconds ttran = 0;        ///< transfer time (T_chunk − T_srv)
  Seconds tsrv = 0;
  Seconds tclt = 0;         ///< client processing before the next chunk
  Seconds idle_before = 0;  ///< 0 for the first chunk of a connection
  Seconds rto_at_idle = 0;
  Seconds rtt = 0;          ///< flow average RTT
};
static_assert(sizeof(ChunkPerf) == 72);

/// One file retrieval, as seen by a front-end cache: which content, how
/// big, when. The §3.1.4 cache what-if replays this stream.
struct RetrievalEvent {
  UnixSeconds at = 0;
  std::uint64_t user_id = 0;
  Md5Digest file_md5;
  Bytes size = 0;
  bool shared = false;  ///< popular URL-shared content vs own upload
};

/// Per-session resilience outcome (the unit of the availability analysis).
struct SessionOutcome {
  UnixSeconds start = 0;
  DeviceType device = DeviceType::kAndroid;
  std::uint64_t user_id = 0;
  std::uint32_t ops = 0;
  std::uint32_t failed_ops = 0;
  [[nodiscard]] bool Success() const { return failed_ops == 0; }
};

/// Aggregate resilience counters for one Execute() run. All zero on a
/// fault-free run except the session/op totals.
struct FaultStats {
  std::uint64_t sessions = 0;
  std::uint64_t failed_sessions = 0;  ///< at least one op abandoned
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;       ///< abandoned after exhausting retries
  std::uint64_t chunk_attempts = 0;   ///< chunk transfer tries, incl. retries
  std::uint64_t chunk_timeouts = 0;   ///< client chunk-deadline aborts
  std::uint64_t chunk_server_failures = 0;  ///< front-end crashed mid-chunk
  std::uint64_t chunk_disconnects = 0;      ///< cellular drop mid-chunk
  std::uint64_t retries = 0;          ///< retry rounds (backoff waits)
  std::uint64_t failovers = 0;        ///< ops rerouted off a down front-end
  std::uint64_t relocations = 0;      ///< store failovers re-homed in metadata
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedge_wins = 0;       ///< hedged duplicate beat the original
  std::uint64_t resume_skipped_chunks = 0;  ///< committed chunks not re-sent
  Bytes goodput_bytes = 0;  ///< bytes of successfully delivered chunks
  Bytes wasted_bytes = 0;   ///< bytes moved in failed attempts
};

struct ServiceResult {
  std::vector<LogRecord> logs;          ///< time-sorted request logs
  std::vector<RetrievalEvent> retrievals;  ///< chronological
  std::vector<ChunkPerf> chunk_perf;    ///< one entry per chunk request
  std::vector<SessionOutcome> session_outcomes;  ///< one per executed session
  MetadataStats metadata;
  std::vector<FrontEndStats> front_ends;
  FaultStats faults;
  std::uint64_t flows = 0;
  std::uint64_t slow_start_restarts = 0;
  std::uint64_t skipped_uploads = 0;    ///< file-level dedup hits
  std::uint64_t missing_chunk_serves = 0;  ///< retrievals served via replica
  EventQueue::Stats queue;  ///< event-core counters for this run
};

class StorageService {
 public:
  explicit StorageService(const ServiceConfig& config);

  /// Execute sessions (chronologically, via the event queue) and collect
  /// logs plus per-chunk performance samples.
  [[nodiscard]] ServiceResult Execute(
      std::span<const workload::SessionPlan> sessions);

  /// Execute one file transfer and return the raw TCP flow result including
  /// the packet trace — the Fig 13 timeline view.
  [[nodiscard]] tcp::FlowResult SimulateFlow(DeviceType device,
                                             Direction direction,
                                             Bytes file_size,
                                             std::uint64_t seed,
                                             Seconds rtt_override = 0) const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  /// Per device×direction sampler bundle, built once at construction. The
  /// old per-op lambda construction allocated a std::function per flow; the
  /// hot path now borrows these by pointer and allocates nothing.
  struct SamplerSet {
    tcp::StallModel stall;
    tcp::DurationSampler sample_tclt;
  };
  struct FlowSetup {
    tcp::FlowConfig config;
    const SamplerSet* samplers = nullptr;
  };
  [[nodiscard]] FlowSetup BuildFlow(DeviceType device, Direction direction,
                                    Seconds rtt, double bandwidth_bps,
                                    bool record_trace) const;

  void ExecuteSession(const workload::SessionPlan& session, Seconds sim_start,
                      Rng& rng, ServiceResult& result);

  /// The manifest of popular content `rank`, built on its first retrieval
  /// and kept for every later one.
  const FileManifest& PopularManifest(std::size_t rank);

  [[nodiscard]] bool FaultsOn() const { return schedule_ != nullptr; }
  /// First healthy front-end at `t`, probing from `preferred` and wrapping;
  /// nullopt when the whole fleet is down.
  [[nodiscard]] std::optional<FrontEndId> PickHealthyFrontEnd(
      FrontEndId preferred, Seconds t,
      std::optional<FrontEndId> exclude = std::nullopt) const;
  /// Fault-mode chunked transfer: per-chunk deadline, retries with backoff,
  /// failover, client-side resume, optional hedging. Returns true when every
  /// chunk was eventually delivered.
  bool ExecuteFaultedTransfer(const workload::SessionPlan& session,
                              const workload::FileOp& op,
                              const LogRecord& base, Seconds session_rtt,
                              double bandwidth_bps, Seconds op_sim_time,
                              FrontEndId fe_id, const FileManifest& manifest,
                              Bytes size, bool proxied, Rng& rng,
                              Rng& fault_rng, ServiceResult& result);

  ServiceConfig config_;
  Chunker chunker_;
  MetadataServer metadata_;
  std::vector<FrontEndServer> front_ends_;
  /// Cached behaviour + samplers: [device][direction] (0 = store).
  ClientBehavior behaviors_[3];
  SamplerSet samplers_[3][2];
  tcp::DurationSampler sample_tsrv_;
  /// Steady-state scratch buffers reused across flows within Execute().
  std::vector<Bytes> wire_scratch_;
  tcp::FlowResult flow_scratch_;
  std::vector<std::uint64_t> popular_seeds_;
  std::vector<double> zipf_weights_;
  /// popular_manifests_[rank]: popular content `rank`'s manifest once it
  /// has been retrieved (a pure function of its seed, size and the chunk
  /// size, so a kept manifest is the one a rebuild would give).
  std::vector<std::optional<FileManifest>> popular_manifests_;
  std::uint64_t next_content_seed_ = 1;
  /// Per-user list of previously stored content seeds (for self-retrieval).
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, Bytes>>>
      user_contents_;
  /// Fault timeline and the dispatcher's event-driven health view; both null
  /// unless config_.faults.Any() (built per Execute() over its horizon).
  std::unique_ptr<fault::FaultSchedule> schedule_;
  std::unique_ptr<fault::FrontEndHealth> health_;
};

}  // namespace mcloud::cloud
