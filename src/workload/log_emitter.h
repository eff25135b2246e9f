// Fast execution backend: turns SessionPlans into LogRecords with sampled
// (rather than packet-simulated) timing.
//
// This backend generates the multi-million-record week trace consumed by all
// §3 behavioural analyses, where only the *fields* of Table 1 matter. The §4
// performance benches use cloud::StorageService, which executes sessions
// through the TCP substrate instead and produces mechanistic timings.
//
// Two emission paths produce the identical record stream from the identical
// RNG draws (pinned by tests):
//   * EmitSession — scalar AoS reference path, one LogRecord per push_back.
//   * EmitSessionColumnar — the fast path: all post-connection draws of a
//     session are standard normals, so one batched FillNormal supplies the
//     whole session, and fields are stored straight into rows of SoA
//     columns that the caller sized beforehand from SessionRows.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "util/rng.h"
#include "workload/session_plan.h"

namespace mcloud::workload {

/// Reusable per-worker emission scratch (the batched normal buffer). Keep
/// one per shard and steady-state emission allocates nothing.
struct EmitScratch {
  std::vector<double> normals;
};

class FastLogEmitter {
 public:
  FastLogEmitter() = default;

  /// Emit the log records of one session, appended to `out`.
  void EmitSession(const SessionPlan& session, Rng& rng,
                   std::vector<LogRecord>& out) const;

  /// Records one session emits: a file-operation record per op plus one
  /// chunk request per started kChunkSize of its payload. Draws nothing, so
  /// a caller can count a user's rows before emitting them.
  [[nodiscard]] static std::size_t SessionRows(const SessionPlan& session);

  /// Columnar twin of EmitSession: writes the same records (same RNG
  /// stream, bit-identical fields) into rows [row, row + SessionRows) of
  /// `out`, whose columns must already hold those rows, drawing the
  /// session's normals as one batch. Returns the row after the last one
  /// written.
  std::size_t EmitSessionColumnar(const SessionPlan& session, Rng& rng,
                                  RecordColumns& out, std::size_t row,
                                  EmitScratch& scratch) const;

  /// Effective application-level throughput (bytes/s) of a device for a
  /// direction, before per-session jitter.
  [[nodiscard]] static double BaseThroughput(DeviceType device,
                                             Direction direction);
};

}  // namespace mcloud::workload
