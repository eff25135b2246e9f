#include "workload/log_emitter.h"

#include <algorithm>
#include <cmath>

#include "tcp/flow.h"
#include "util/error.h"
#include "workload/calibration.h"

namespace mcloud::workload {

namespace {

// Hoisted log-medians of the per-session lognormal samplers: computed once
// instead of per record. Same std::log on the same constants — the sampled
// values are bit-identical to the inline form.
const double kLogRttMedian = std::log(cal::kRttMedian);
const double kLogTsrvMedian = std::log(cal::kTsrvMedian);

}  // namespace

double FastLogEmitter::BaseThroughput(DeviceType device,
                                      Direction direction) {
  switch (device) {
    case DeviceType::kPc:
      return cal::kLinkBps_Pc;
    case DeviceType::kIos:
      return direction == Direction::kStore ? cal::kUplinkBps_Ios
                                            : cal::kDownlinkBps_Ios;
    case DeviceType::kAndroid:
      return direction == Direction::kStore ? cal::kUplinkBps_Android
                                            : cal::kDownlinkBps_Android;
  }
  throw Error("invalid DeviceType");
}

void FastLogEmitter::EmitSession(const SessionPlan& session, Rng& rng,
                                 std::vector<LogRecord>& out) const {
  MCLOUD_REQUIRE(!session.ops.empty(), "session has no operations");

  // Per-session (≈ per-connection) network characteristics.
  const Seconds rtt = rng.LogNormal(kLogRttMedian, cal::kRttSigma);
  const bool proxied = rng.Bernoulli(cal::kProxiedShare);

  LogRecord base;
  base.device_type = session.device_type;
  base.device_id = session.device_id;
  base.user_id = session.user_id;
  base.proxied = proxied;

  auto sample_tsrv = [&rng] {
    return rng.LogNormal(kLogTsrvMedian, cal::kTsrvSigma);
  };

  // A serialized transfer pipe per direction: chunks of queued files move
  // back to back at the device's effective throughput (one TCP connection
  // per direction; chunk requests on a connection are sequential, §2.1).
  Seconds pipe_free_store = 0;
  Seconds pipe_free_retrieve = 0;

  for (const FileOp& op : session.ops) {
    const Seconds tsrv_op = sample_tsrv() * 0.3;  // metadata-only exchange
    LogRecord file_op = base;
    file_op.timestamp =
        session.start + static_cast<UnixSeconds>(op.offset);
    file_op.request_type = RequestType::kFileOperation;
    file_op.direction = op.direction;
    file_op.data_volume = 0;
    file_op.server_time = tsrv_op;
    file_op.processing_time = tsrv_op + rtt;
    file_op.avg_rtt = rtt;
    out.push_back(file_op);

    // Chunk transfers: throughput jitters per file (radio conditions vary
    // over a session).
    const double rate =
        BaseThroughput(session.device_type, op.direction) *
        rng.LogNormal(0.0, 0.45);
    Seconds& pipe_free = (op.direction == Direction::kStore)
                             ? pipe_free_store
                             : pipe_free_retrieve;
    Seconds cursor = std::max(op.offset + rtt, pipe_free);
    for (Bytes chunk : tcp::SplitIntoChunks(op.size, kChunkSize)) {
      const Seconds tsrv = sample_tsrv();
      const Seconds transfer = static_cast<double>(chunk) / rate;
      cursor += transfer;

      LogRecord rec = base;
      rec.timestamp = session.start + static_cast<UnixSeconds>(cursor);
      rec.request_type = RequestType::kChunkRequest;
      rec.direction = op.direction;
      rec.data_volume = chunk;
      rec.server_time = tsrv;
      rec.processing_time = transfer + tsrv;
      rec.avg_rtt = rtt * rng.LogNormal(0.0, 0.10);
      out.push_back(rec);

      // Inter-chunk gap: HTTP-level acknowledgment plus client preparation.
      cursor += tsrv + rtt;
    }
    pipe_free = cursor;
  }
}

std::size_t FastLogEmitter::SessionRows(const SessionPlan& session) {
  std::size_t rows = 0;
  for (const FileOp& op : session.ops)
    rows += 1 + static_cast<std::size_t>(op.size / kChunkSize) +
            (op.size % kChunkSize != 0 ? 1 : 0);
  return rows;
}

std::size_t FastLogEmitter::EmitSessionColumnar(const SessionPlan& session,
                                                Rng& rng, RecordColumns& out,
                                                std::size_t row,
                                                EmitScratch& scratch) const {
  MCLOUD_REQUIRE(!session.ops.empty(), "session has no operations");
  const std::size_t rows = SessionRows(session);
  MCLOUD_REQUIRE(row + rows <= out.size(), "columns too short for session");

  // Per-session (≈ per-connection) network characteristics — the scalar
  // draws, in the scalar order.
  const Seconds rtt = rng.LogNormal(kLogRttMedian, cal::kRttSigma);
  const bool proxied = rng.Bernoulli(cal::kProxiedShare);

  // Every draw after `proxied` is a standard normal mapped through
  // exp(mu + sigma·z): two per record — a file op's metadata T_srv and
  // throughput jitter, a chunk's T_srv and RTT jitter. One batched fill
  // replaces them all — FillNormal consumes the engine exactly as the
  // scalar calls would.
  scratch.normals.resize(2 * rows);
  rng.FillNormal(scratch.normals);
  const double* z = scratch.normals.data();

  std::int64_t* const timestamps = out.timestamps.data();
  std::uint8_t* const device_types = out.device_types.data();
  std::uint64_t* const device_ids = out.device_ids.data();
  std::uint64_t* const user_ids = out.user_ids.data();
  std::uint8_t* const request_types = out.request_types.data();
  std::uint8_t* const directions = out.directions.data();
  std::uint64_t* const data_volumes = out.data_volumes.data();
  double* const processing_times = out.processing_times.data();
  double* const server_times = out.server_times.data();
  double* const avg_rtts = out.avg_rtts.data();
  std::uint8_t* const proxied_col = out.proxied.data();

  const std::uint8_t device_type =
      static_cast<std::uint8_t>(session.device_type);
  const std::uint8_t proxied_u8 = proxied ? 1 : 0;
  // The fields every record of the session shares.
  const auto put_session = [&](std::size_t r) {
    device_types[r] = device_type;
    device_ids[r] = session.device_id;
    user_ids[r] = session.user_id;
    proxied_col[r] = proxied_u8;
  };

  Seconds pipe_free_store = 0;
  Seconds pipe_free_retrieve = 0;

  for (const FileOp& op : session.ops) {
    const std::uint8_t direction = static_cast<std::uint8_t>(op.direction);
    const Seconds tsrv_op =
        std::exp(kLogTsrvMedian + cal::kTsrvSigma * *z++) * 0.3;
    put_session(row);
    timestamps[row] = session.start + static_cast<UnixSeconds>(op.offset);
    request_types[row] =
        static_cast<std::uint8_t>(RequestType::kFileOperation);
    directions[row] = direction;
    data_volumes[row] = 0;
    processing_times[row] = tsrv_op + rtt;
    server_times[row] = tsrv_op;
    avg_rtts[row] = rtt;
    ++row;

    const double rate = BaseThroughput(session.device_type, op.direction) *
                        std::exp(0.0 + 0.45 * *z++);
    Seconds& pipe_free = (op.direction == Direction::kStore)
                             ? pipe_free_store
                             : pipe_free_retrieve;
    Seconds cursor = std::max(op.offset + rtt, pipe_free);
    // Chunk walk without the SplitIntoChunks vector: `full` whole chunks
    // then the tail remainder — the identical chunk sequence.
    const std::size_t full = static_cast<std::size_t>(op.size / kChunkSize);
    const Bytes tail = op.size % kChunkSize;
    const std::size_t chunks = full + (tail != 0 ? 1 : 0);
    for (std::size_t c = 0; c < chunks; ++c) {
      const Bytes chunk = c < full ? kChunkSize : tail;
      const Seconds tsrv = std::exp(kLogTsrvMedian + cal::kTsrvSigma * *z++);
      const Seconds transfer = static_cast<double>(chunk) / rate;
      cursor += transfer;

      put_session(row);
      timestamps[row] = session.start + static_cast<UnixSeconds>(cursor);
      request_types[row] =
          static_cast<std::uint8_t>(RequestType::kChunkRequest);
      directions[row] = direction;
      data_volumes[row] = chunk;
      processing_times[row] = transfer + tsrv;
      server_times[row] = tsrv;
      avg_rtts[row] = rtt * std::exp(0.0 + 0.10 * *z++);
      ++row;

      cursor += tsrv + rtt;
    }
    pipe_free = cursor;
  }
  return row;
}

}  // namespace mcloud::workload
