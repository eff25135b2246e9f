#include "cloud/storage_service.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace mcloud::cloud {

StorageService::StorageService(const ServiceConfig& config)
    : config_(config),
      chunker_(config.chunk_size),
      metadata_(config.front_ends) {
  MCLOUD_REQUIRE(config.front_ends > 0, "need at least one front-end");
  MCLOUD_REQUIRE(config.batch_chunks >= 1, "batch factor must be >= 1");
  for (std::uint32_t i = 0; i < config.front_ends; ++i)
    front_ends_.emplace_back(i, config.server);

  // Popular shared contents (videos, packages) with Zipf popularity.
  popular_seeds_.reserve(config.popular_contents);
  zipf_weights_.reserve(config.popular_contents);
  popular_manifests_.resize(config.popular_contents);
  for (std::size_t i = 0; i < config.popular_contents; ++i) {
    popular_seeds_.push_back(
        0xC0FFEEULL * (i + 1));  // disjoint from per-upload seeds
    zipf_weights_.push_back(
        std::pow(static_cast<double>(i + 1), -config.zipf_exponent));
  }

  // Freeze the per-device/direction samplers once; the same closures used
  // to be rebuilt (and heap-allocated) for every flow in BuildFlow.
  sample_tsrv_ = [spec = config.server.tsrv](Rng& r) { return spec.Sample(r); };
  for (int d = 0; d < 3; ++d) {
    const ClientBehavior& client = behaviors_[d] =
        BehaviorFor(static_cast<DeviceType>(d));
    SamplerSet& store = samplers_[d][0];
    store.stall.block = client.stall_block;
    if (client.stall_block > 0) {
      store.stall.sample = [spec = client.stall_duration](Rng& r) {
        return spec.Sample(r);
      };
    }
    store.sample_tclt = [spec = client.store_tclt](Rng& r) {
      return spec.Sample(r);
    };
    SamplerSet& retrieve = samplers_[d][1];
    retrieve.stall.block = client.retrieve_stall_block;
    if (client.retrieve_stall_block > 0) {
      retrieve.stall.sample = [spec = client.retrieve_stall_duration](Rng& r) {
        return spec.Sample(r);
      };
    }
    retrieve.sample_tclt = [spec = client.retrieve_tclt](Rng& r) {
      return spec.Sample(r);
    };
  }
}

StorageService::FlowSetup StorageService::BuildFlow(DeviceType device,
                                                    Direction direction,
                                                    Seconds rtt,
                                                    double bandwidth_bps,
                                                    bool record_trace) const {
  const auto d = static_cast<int>(device);
  const ClientBehavior& client = behaviors_[d];
  const ServerBehavior& server = config_.server;

  FlowSetup setup;
  setup.config.mss = 1448;
  setup.config.rtt = rtt;
  setup.config.bandwidth_bps = bandwidth_bps;
  setup.config.record_trace = record_trace;
  setup.config.cc.slow_start_after_idle = config_.ssai_enabled;
  setup.config.cc.pace_after_idle = config_.pace_after_idle;
  setup.config.post_idle_burst_loss_prob = config_.post_idle_burst_loss_prob;
  setup.config.random_loss_prob = config_.random_loss_prob;

  if (direction == Direction::kStore) {
    // Client is the TCP data sender; the front-end's advertised window caps
    // it (64 KB unless the window-scaling what-if is on).
    setup.config.sender_window = config_.server_window_scaling
                                     ? config_.scaled_server_window
                                     : server.receive_window;
    setup.samplers = &samplers_[d][0];
  } else {
    // Server is the sender; mobile clients enable window scaling, so the
    // effective cap is the client's multi-MB window. Slow readers stall the
    // sender through flow control (receive-side stalls).
    setup.config.sender_window = client.receive_window;
    setup.samplers = &samplers_[d][1];
  }
  return setup;
}

tcp::FlowResult StorageService::SimulateFlow(DeviceType device,
                                             Direction direction,
                                             Bytes file_size,
                                             std::uint64_t seed,
                                             Seconds rtt_override) const {
  Rng rng(seed);
  const ClientBehavior client = BehaviorFor(device);
  const Seconds rtt =
      rtt_override > 0 ? rtt_override : MobileRttSpec().Sample(rng);
  const double bw = (direction == Direction::kStore)
                        ? client.uplink_bps.Sample(rng)
                        : client.downlink_bps.Sample(rng);
  FlowSetup setup = BuildFlow(device, direction, rtt, bw, true);

  std::vector<Bytes> chunks = tcp::SplitIntoChunks(
      file_size, config_.chunk_size * config_.batch_chunks);
  const tcp::FlowSimulator sim(setup.config);
  return sim.Run(chunks, sample_tsrv_, setup.samplers->sample_tclt,
                 setup.samplers->stall, rng);
}

void StorageService::ExecuteSession(const workload::SessionPlan& session,
                                    Seconds sim_start, Rng& rng,
                                    ServiceResult& result) {
  const ClientBehavior client = BehaviorFor(session.device_type);
  const bool is_mobile = session.device_type != DeviceType::kPc;
  const Seconds session_rtt =
      is_mobile ? MobileRttSpec().Sample(rng)
                : LogNormalSpec{0.040, 0.45}.Sample(rng);
  const bool proxied = rng.Bernoulli(0.06);

  LogRecord base;
  base.device_type = session.device_type;
  base.device_id = session.device_id;
  base.user_id = session.user_id;
  base.proxied = proxied;

  SessionOutcome outcome;
  outcome.start = session.start;
  outcome.device = session.device_type;
  outcome.user_id = session.user_id;
  outcome.ops = static_cast<std::uint32_t>(session.ops.size());

  // Fault randomness (retry jitter, disconnect draws, hedge duplicates)
  // comes from its own stream keyed on the fault seed and the session
  // identity — it never touches the workload's session stream, so the
  // fault-free draws above and below are unaffected by the fault layer.
  Rng fault_rng = Rng::ForStream(
      config_.faults.seed ^ 0xF417F417ULL,
      session.user_id ^ (session.device_id << 20) ^
          static_cast<std::uint64_t>(session.start));

  for (const workload::FileOp& op : session.ops) {
    const UnixSeconds op_time =
        session.start + static_cast<UnixSeconds>(op.offset);

    // --- Resolve content identity and consult the metadata server. The
    // manifest is a pure function of (content seed, size); compute it once
    // per op (or borrow a popular content's) and reuse it everywhere below.
    Bytes size = op.size;
    bool upload_needed = true;
    FrontEndId fe_id = 0;
    FileManifest built;  // the op's own manifest unless it is popular
    const FileManifest* resolved = &built;

    bool shared_content = false;
    if (op.direction == Direction::kStore) {
      const std::uint64_t content_seed = next_content_seed_++;
      built = chunker_.Manifest(content_seed, size);
      const StoreDecision decision =
          metadata_.QueryStore(session.user_id, built);
      fe_id = decision.front_end;
      upload_needed = !decision.already_stored;
      user_contents_[session.user_id].emplace_back(content_seed, size);
      if (!upload_needed) ++result.skipped_uploads;
    } else {
      // Retrieval: popular shared content by URL, or the user's own upload.
      const auto& own = user_contents_[session.user_id];
      if (!own.empty() && !rng.Bernoulli(config_.shared_content_prob)) {
        const auto& pick = own[rng.UniformInt(own.size())];
        size = pick.second;
        built = chunker_.Manifest(pick.first, size);
      } else {
        resolved = &PopularManifest(rng.PickWeighted(zipf_weights_));
        size = resolved->size;
        shared_content = true;
      }
      const StoreDecision registered =
          metadata_.QueryStore(0 /* origin uploader */, *resolved);
      const auto located =
          metadata_.QueryRetrieve(session.user_id, resolved->file_md5);
      fe_id = located.value_or(registered.front_end);

      RetrievalEvent ev;
      ev.at = op_time;
      ev.user_id = session.user_id;
      ev.file_md5 = resolved->file_md5;
      ev.size = size;
      ev.shared = shared_content;
      result.retrievals.push_back(ev);
    }

    const FileManifest& manifest = *resolved;
    const Seconds op_sim_time = sim_start + op.offset;

    // --- Health-checked dispatch (fault mode): the dispatcher's
    // event-driven registry flags suspect front-ends; a probe against the
    // fault timeline at the op's actual instant confirms, and the op fails
    // over to the next healthy server. Store failovers are re-homed in the
    // metadata server so later retrievals find the chunks.
    if (FaultsOn() &&
        (!health_->IsUp(fe_id) ||
         schedule_->FrontEndDown(fe_id, op_sim_time))) {
      const auto healthy = PickHealthyFrontEnd(fe_id, op_sim_time);
      if (!healthy) {
        ++outcome.failed_ops;  // whole fleet down: the request never lands
        continue;
      }
      if (*healthy != fe_id) {
        ++result.faults.failovers;
        if (op.direction == Direction::kStore && upload_needed) {
          metadata_.Relocate(manifest.file_md5, *healthy);
          ++result.faults.relocations;
        }
        fe_id = *healthy;
      }
    }
    FrontEndServer& fe = front_ends_[fe_id];

    // --- File operation request (metadata exchange with the front-end).
    Seconds op_tsrv = config_.server.tsrv.Sample(rng) * 0.3;
    if (FaultsOn()) op_tsrv *= schedule_->TsrvFactor(fe_id, op_sim_time);
    fe.LogFileOperation(base, op_time, op.direction, op_tsrv, session_rtt,
                        result.logs);

    if (op.direction == Direction::kStore && !upload_needed)
      continue;  // dedup: the metadata server suppressed the upload

    // --- Chunked transfer over one TCP connection.
    const double bw = (op.direction == Direction::kStore)
                          ? client.uplink_bps.Sample(rng)
                          : client.downlink_bps.Sample(rng);

    if (FaultsOn()) {
      if (!ExecuteFaultedTransfer(session, op, base, session_rtt, bw,
                                  op_sim_time, fe_id, manifest, size, proxied,
                                  rng, fault_rng, result))
        ++outcome.failed_ops;
      continue;
    }

    const FlowSetup setup = BuildFlow(session.device_type, op.direction,
                                      session_rtt, bw, false);
    if (config_.batch_chunks <= 1) {
      wire_scratch_.clear();
      wire_scratch_.reserve(manifest.chunks.size());
      for (const ChunkInfo& c : manifest.chunks)
        wire_scratch_.push_back(c.size);
    } else {
      tcp::SplitIntoChunksInto(size, config_.chunk_size * config_.batch_chunks,
                               wire_scratch_);
    }

    const tcp::FlowSimulator sim(setup.config);
    sim.RunInto(wire_scratch_, sample_tsrv_, setup.samplers->sample_tclt,
                setup.samplers->stall, rng, flow_scratch_);
    const tcp::FlowResult& flow = flow_scratch_;
    ++result.flows;
    result.slow_start_restarts += flow.restarts;

    // --- Account each chunk and emit its log record.
    Seconds flow_offset = op.offset;
    for (std::size_t i = 0; i < flow.chunks.size(); ++i) {
      const tcp::ChunkTiming& t = flow.chunks[i];
      const UnixSeconds at = session.start + static_cast<UnixSeconds>(
          flow_offset + t.request_at + t.transfer_time);

      // The manifest chunk (for hashes) corresponding to this wire chunk;
      // with batching, attribute to the first chunk of the batch.
      const ChunkInfo& info =
          manifest.chunks[std::min<std::size_t>(
              i * config_.batch_chunks, manifest.chunks.size() - 1)];
      ChunkInfo wire_info = info;
      wire_info.size = t.bytes;

      if (op.direction == Direction::kStore) {
        fe.CommitChunkStore(base, at, wire_info, t.transfer_time,
                            t.server_time, flow.avg_rtt, result.logs);
      } else {
        if (fe.ServeChunkRetrieve(base, at, wire_info, t.transfer_time,
                                  t.server_time, flow.avg_rtt, result.logs) ==
            RetrieveOutcome::kServedMissing)
          ++result.missing_chunk_serves;
      }

      ChunkPerf perf;
      perf.device = session.device_type;
      perf.direction = op.direction;
      perf.bytes = t.bytes;
      perf.ttran = t.transfer_time;
      perf.tsrv = t.server_time;
      perf.tclt = t.client_time;
      perf.idle_before = t.idle_before;
      perf.rto_at_idle = t.rto_at_idle;
      perf.restarted = t.restarted;
      perf.rtt = flow.avg_rtt;
      perf.proxied = proxied;
      perf.session_seq =
          static_cast<std::uint32_t>(result.session_outcomes.size());
      result.chunk_perf.push_back(perf);
    }
  }

  ++result.faults.sessions;
  result.faults.ops += outcome.ops;
  result.faults.failed_ops += outcome.failed_ops;
  if (!outcome.Success()) ++result.faults.failed_sessions;
  result.session_outcomes.push_back(outcome);
}

const FileManifest& StorageService::PopularManifest(std::size_t rank) {
  std::optional<FileManifest>& m = popular_manifests_[rank];
  if (!m) {
    // Shared content is the large-object regime (Fig 5c): videos and
    // packages; size keyed to the content so every downloader agrees.
    const std::uint64_t content_seed = popular_seeds_[rank];
    Rng content_rng(content_seed);
    m = chunker_.Manifest(content_seed,
                          FromMB(2.0 + content_rng.ExponentialMean(120.0)));
  }
  return *m;
}

std::optional<FrontEndId> StorageService::PickHealthyFrontEnd(
    FrontEndId preferred, Seconds t, std::optional<FrontEndId> exclude) const {
  const auto n = static_cast<FrontEndId>(front_ends_.size());
  for (FrontEndId i = 0; i < n; ++i) {
    const FrontEndId fe = (preferred + i) % n;
    if (exclude && fe == *exclude) continue;
    if (schedule_->FrontEndDown(fe, t)) continue;
    return fe;
  }
  return std::nullopt;
}

bool StorageService::ExecuteFaultedTransfer(
    const workload::SessionPlan& session, const workload::FileOp& op,
    const LogRecord& base, Seconds session_rtt, double bandwidth_bps,
    Seconds op_sim_time, FrontEndId fe_id, const FileManifest& manifest,
    Bytes size, bool proxied, Rng& rng, Rng& fault_rng,
    ServiceResult& result) {
  const fault::RetryPolicy& policy = config_.retry;

  // Wire chunks for the connection; each remembers which manifest chunk
  // backs it (for hashes) and how many tries it has consumed.
  struct Pending {
    Bytes bytes = 0;
    std::size_t wire_index = 0;
    std::uint32_t attempts = 0;
  };
  std::vector<Pending> pending;
  if (config_.batch_chunks <= 1) {
    pending.reserve(manifest.chunks.size());
    for (std::size_t i = 0; i < manifest.chunks.size(); ++i)
      pending.push_back(Pending{manifest.chunks[i].size, i, 0});
  } else {
    const std::vector<Bytes> batched = tcp::SplitIntoChunks(
        size, config_.chunk_size * config_.batch_chunks);
    pending.reserve(batched.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
      pending.push_back(Pending{batched[i], i, 0});
  }
  const std::size_t total_chunks = pending.size();

  // Simulated instant (absolute) → trace timestamp.
  const auto to_unix = [&](Seconds s) {
    return session.start +
           static_cast<UnixSeconds>(op.offset + (s - op_sim_time));
  };

  Seconds clock = op_sim_time;  // advances across retry rounds
  bool first_attempt = true;

  while (!pending.empty()) {
    // Client-side resume: chunks committed by earlier attempts stay off the
    // wire — only what is still pending is re-sent.
    if (!first_attempt)
      result.faults.resume_skipped_chunks += total_chunks - pending.size();

    // Health-checked (re)connect with failover; a store that lands on a
    // different server than the metadata decision is re-homed.
    const auto healthy = PickHealthyFrontEnd(fe_id, clock);
    if (!healthy) return false;  // whole fleet down: give up
    if (*healthy != fe_id) {
      ++result.faults.failovers;
      if (op.direction == Direction::kStore) {
        metadata_.Relocate(manifest.file_md5, *healthy);
        ++result.faults.relocations;
      }
      fe_id = *healthy;
    }

    FlowSetup setup = BuildFlow(session.device_type, op.direction,
                                session_rtt, bandwidth_bps, false);
    setup.config.chunk_deadline = policy.chunk_timeout;
    setup.config.random_loss_prob += schedule_->ExtraLossProb(clock);
    const tcp::DurationSampler* tsrv = &sample_tsrv_;
    tcp::DurationSampler degraded_tsrv;
    if (const double f = schedule_->TsrvFactor(fe_id, clock); f != 1.0) {
      degraded_tsrv = [spec = config_.server.tsrv, f](Rng& r) {
        return spec.Sample(r) * f;
      };
      tsrv = &degraded_tsrv;
    }

    std::vector<Bytes> sizes;
    sizes.reserve(pending.size());
    for (const Pending& p : pending) sizes.push_back(p.bytes);

    const tcp::FlowSimulator sim(setup.config);
    const tcp::FlowResult flow =
        sim.Run(sizes, *tsrv, setup.samplers->sample_tclt,
                setup.samplers->stall, rng);
    ++result.flows;
    result.slow_start_restarts += flow.restarts;
    first_attempt = false;

    // Walk the attempt: the first chunk that times out, loses its front-end
    // mid-transfer, or drops its connection truncates the attempt there.
    std::size_t completed = 0;
    enum class Fail { kNone, kTimeout, kCrash, kDisconnect };
    Fail fail = Fail::kNone;
    Seconds fail_elapsed = 0;

    for (std::size_t k = 0; k < flow.chunks.size() && fail == Fail::kNone;
         ++k) {
      const tcp::ChunkTiming& t = flow.chunks[k];
      Pending& p = pending[k];
      const Seconds chunk_start = clock + t.request_at;
      const Seconds chunk_end = chunk_start + t.transfer_time;
      ++result.faults.chunk_attempts;
      ++p.attempts;

      if (t.aborted) {
        fail = Fail::kTimeout;
        ++result.faults.chunk_timeouts;
        result.faults.wasted_bytes += t.bytes;
        fail_elapsed = chunk_end - clock;
        // The front-end logs the broken request when the client walks away.
        LogRecord r = base;
        r.timestamp = to_unix(chunk_end);
        r.request_type = RequestType::kChunkRequest;
        r.direction = op.direction;
        r.data_volume = t.bytes;
        r.server_time = t.server_time;
        r.processing_time = t.transfer_time;
        r.avg_rtt = flow.avg_rtt;
        r.attempt = p.attempts;
        r.outcome = RequestOutcome::kTimedOut;
        result.logs.push_back(r);
      } else if (schedule_->FrontEndDownDuring(fe_id, chunk_start,
                                               chunk_end)) {
        // The front-end crashed mid-transfer; nothing was logged server-side.
        fail = Fail::kCrash;
        ++result.faults.chunk_server_failures;
        result.faults.wasted_bytes += t.bytes;
        fail_elapsed = chunk_end - clock;
      } else if (const double dp = schedule_->DisconnectProb(chunk_start);
                 dp > 0 && fault_rng.Bernoulli(dp)) {
        // Cellular drop inside a loss burst: the connection dies outright.
        fail = Fail::kDisconnect;
        ++result.faults.chunk_disconnects;
        result.faults.wasted_bytes += t.bytes;
        fail_elapsed = chunk_end - clock;
      } else {
        // Success — optionally hedge a straggler to a second front-end and
        // keep whichever copy finishes first. The trigger and the race are
        // on total chunk service time (transfer + server processing): a
        // degraded server shows up in T_srv, not in the transfer itself.
        Seconds ttran = t.transfer_time;
        Seconds srv_time = t.server_time;
        RequestOutcome oc = RequestOutcome::kOk;
        FrontEndId serve_fe = fe_id;
        if (policy.hedge && ttran + srv_time > policy.hedge_delay &&
            front_ends_.size() > 1) {
          const auto alt = PickHealthyFrontEnd(
              (fe_id + 1) % static_cast<FrontEndId>(front_ends_.size()),
              chunk_start, fe_id);
          if (alt) {
            ++result.faults.hedges_issued;
            // The duplicate runs against the alternate server's own health
            // (its degradation factor, not the original's).
            const double alt_f = schedule_->TsrvFactor(*alt, chunk_start);
            const tcp::DurationSampler dup_tsrv =
                [spec = config_.server.tsrv, alt_f](Rng& r) {
                  return spec.Sample(r) * alt_f;
                };
            const Bytes one[] = {t.bytes};
            const tcp::FlowResult dup =
                sim.Run(one, dup_tsrv, setup.samplers->sample_tclt,
                        setup.samplers->stall, fault_rng);
            // The duplicate fires hedge_delay into the original's service
            // time and pays a fresh connection handshake.
            if (!dup.aborted && !dup.chunks.empty()) {
              const tcp::ChunkTiming& d = dup.chunks.front();
              const Seconds dup_total = policy.hedge_delay +
                                        setup.config.rtt + d.transfer_time +
                                        d.server_time;
              if (dup_total < ttran + srv_time) {
                ttran = policy.hedge_delay + setup.config.rtt +
                        d.transfer_time;
                srv_time = d.server_time;
                oc = RequestOutcome::kHedged;
                serve_fe = *alt;
                ++result.faults.hedge_wins;
              }
            }
          }
        }

        const ChunkInfo& info = manifest.chunks[std::min<std::size_t>(
            p.wire_index * config_.batch_chunks, manifest.chunks.size() - 1)];
        ChunkInfo wire_info = info;
        wire_info.size = t.bytes;
        const UnixSeconds at = to_unix(chunk_end);
        FrontEndServer& srv = front_ends_[serve_fe];
        if (op.direction == Direction::kStore) {
          srv.CommitChunkStore(base, at, wire_info, ttran, srv_time,
                               flow.avg_rtt, result.logs, p.attempts, oc);
        } else {
          if (srv.ServeChunkRetrieve(base, at, wire_info, ttran, srv_time,
                                     flow.avg_rtt, result.logs, p.attempts,
                                     oc) == RetrieveOutcome::kServedMissing)
            ++result.missing_chunk_serves;
        }

        ChunkPerf perf;
        perf.device = session.device_type;
        perf.direction = op.direction;
        perf.bytes = t.bytes;
        perf.ttran = ttran;
        perf.tsrv = srv_time;
        perf.tclt = t.client_time;
        perf.idle_before = t.idle_before;
        perf.rto_at_idle = t.rto_at_idle;
        perf.restarted = t.restarted;
        perf.rtt = flow.avg_rtt;
        perf.proxied = proxied;
        perf.attempt = p.attempts;
        perf.session_seq =
            static_cast<std::uint32_t>(result.session_outcomes.size());
        result.chunk_perf.push_back(perf);
        result.faults.goodput_bytes += t.bytes;
        ++completed;
      }
    }

    if (fail == Fail::kNone) return true;  // every pending chunk delivered

    // Committed chunks leave the pending set for good (resumable transfer);
    // the chunk the attempt died on keeps its attempt count.
    const Pending failed_chunk = pending[completed];
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(completed));
    if (failed_chunk.attempts >= policy.max_attempts) {
      // Give up: record the abandonment so availability analysis sees it.
      LogRecord r = base;
      r.timestamp = to_unix(clock + fail_elapsed);
      r.request_type = RequestType::kChunkRequest;
      r.direction = op.direction;
      r.data_volume = 0;
      r.avg_rtt = session_rtt;
      r.attempt = failed_chunk.attempts;
      r.outcome = RequestOutcome::kFailed;
      result.logs.push_back(r);
      return false;
    }
    ++result.faults.retries;
    clock += fail_elapsed +
             policy.Backoff(failed_chunk.attempts + 1, fault_rng);
  }
  return true;
}

ServiceResult StorageService::Execute(
    std::span<const workload::SessionPlan> sessions) {
  ServiceResult result;

  // Schedule sessions on the event queue in start order; each session
  // executes atomically at its start time (flows do not contend across
  // sessions — front-end capacity is not the bottleneck the paper studies).
  EventQueue queue;
  UnixSeconds t0 = sessions.empty() ? 0 : sessions.front().start;
  for (const auto& s : sessions) t0 = std::min(t0, s.start);

  // Fault mode: expand the fault timeline over the run's horizon and drive
  // the dispatcher's health registry from crash/restart events on the same
  // queue the sessions run on (installed first, so a crash at time t is
  // visible to a session starting at t).
  const bool faults_on = config_.faults.Any();
  std::vector<EventQueue::EventId> health_events;
  Seconds last_start = 0;
  if (faults_on && !sessions.empty()) {
    Seconds horizon = 0;
    for (const auto& s : sessions) {
      const Seconds rel = static_cast<Seconds>(s.start - t0);
      last_start = std::max(last_start, rel);
      horizon = std::max(
          horizon, rel + (s.ops.empty() ? 0.0 : s.ops.back().offset));
    }
    horizon += 6 * 3600.0;  // slack for flows and retries past the last op
    schedule_ = std::make_unique<fault::FaultSchedule>(
        config_.faults, config_.front_ends, horizon);
    health_ = std::make_unique<fault::FrontEndHealth>(config_.front_ends);
    health_events = schedule_->InstallHealthEvents(queue, *health_);
  }

  Rng rng(config_.seed);
  for (const auto& session : sessions) {
    queue.ScheduleAt(static_cast<Seconds>(session.start - t0),
                     [this, &session, &rng, &result, t0] {
                       Rng session_rng = rng.Fork(session.user_id ^
                                                  (session.device_id << 20) ^
                                                  static_cast<std::uint64_t>(
                                                      session.start));
                       ExecuteSession(session,
                                      static_cast<Seconds>(session.start - t0),
                                      session_rng, result);
                     });
  }
  if (faults_on) {
    // Run through the last session, then retract the unused tail of the
    // health timeline instead of churning through it.
    queue.RunUntil(last_start);
    for (const EventQueue::EventId id : health_events) queue.Cancel(id);
  }
  queue.RunAll();
  result.queue = queue.GetStats();

  std::sort(result.logs.begin(), result.logs.end(), LogRecordTimeOrder);
  std::sort(result.retrievals.begin(), result.retrievals.end(),
            [](const RetrievalEvent& a, const RetrievalEvent& b) {
              return a.at < b.at;
            });
  result.metadata = metadata_.stats();
  for (const auto& fe : front_ends_) result.front_ends.push_back(fe.stats());
  schedule_.reset();  // per-Execute state; the schedule dies with the run
  health_.reset();
  return result;
}

}  // namespace mcloud::cloud
