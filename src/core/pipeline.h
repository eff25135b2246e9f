// AnalysisPipeline: the end-to-end §3 methodology as one call — trace in,
// FullReport out. This is the primary public entry point of the library for
// log-analysis consumers (see examples/quickstart.cpp).
//
// One engine serves every data source. A private walk streams the trace's
// analysis columns through the two streaming cores of
// analysis/stream_engine.h one slice at a time; a slice is a contiguous
// range of users with the complete history of each, every user's rows in
// time order. The slices, cut into user sub-ranges when there are fewer
// of them than threads, are pool tasks whose results merge in user order.
// The report tail then fits the Fig 3 interval model and runs the shared
// fit/aggregation stages. The entry points differ only in where the slices
// come from:
//   * Run(const TraceStore&) — a resident store is one slice, one calendar
//     day per block. Run(span) builds the store first.
//   * RunStreaming(const PartitionedTrace&) — a partitioned on-disk trace
//     gives one slice per spill group, read under the `max_memory_mb`
//     staging budget.
//   * RunSlices(produce) — each slice a producer seals, walked in place on
//     the producer's own pool before generation goes on: no thread, no
//     queue, and no file unless the producer writes one.
// With a fixed session τ one walk feeds both cores. With τ = auto
// (session_tau == 0) the per-user core needs the valley τ of the complete
// interval sketch, so the walk reads the trace twice. Every entry point
// produces the same FullReport, bit for bit, at every thread count and
// staging budget.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/report.h"
#include "trace/log_record.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"

namespace mcloud::core {

struct PipelineOptions {
  UnixSeconds trace_start = kTraceStart;
  int days = 7;
  /// τ for session identification; 0 = derive it from the data via the
  /// Fig 3 histogram-valley method instead of assuming one hour.
  Seconds session_tau = kHour;
  /// Worker threads for the independent analysis stages; 0 = hardware
  /// concurrency, and requests wider than the hardware are clamped to it
  /// (oversubscribing the CPU-bound fit stages only slows them down).
  /// Results are identical for every thread count — stages compute disjoint
  /// report fields from read-only inputs.
  int threads = 0;
  /// Approximate resident budget (MB) for RunStreaming's staging buffers;
  /// 0 = a 1 GiB default. Only a tuning knob — the report is
  /// bit-identical at every budget.
  std::size_t max_memory_mb = 0;
};

/// Wall-clock seconds spent per stage family, for the bench breakdowns.
/// Stages run concurrently, so the fields can sum to more than `total_s`.
struct StageTimings {
  /// The block walk that feeds both streaming cores (with τ = auto, the
  /// first walk, which feeds only the row-order core).
  double scan_s = 0;
  /// The per-user core's finish: canonical session sorts, usage tables,
  /// device counts (with τ = auto, also the second walk that feeds it).
  double sessionize_s = 0;
  /// Per-user aggregations: Table 3 columns, engagement curves, session
  /// statistics.
  double per_user_s = 0;
  /// Numeric fits: interval GMM, activity models, file-size EM mixtures.
  double fits_s = 0;
  double total_s = 0;
};

class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(const PipelineOptions& options = {});

  /// Run every §3 analysis over a time-sorted trace (mobile + PC records):
  /// builds a TraceStore and runs Run(const TraceStore&).
  [[nodiscard]] FullReport Run(std::span<const LogRecord> trace,
                               StageTimings* timings = nullptr) const;

  /// Walk a resident store (needs kAnalysisColumns) as one slice, cut into
  /// one user range per thread.
  [[nodiscard]] FullReport Run(const TraceStore& store,
                               StageTimings* timings = nullptr) const;

  /// Walk a partitioned on-disk trace one spill group at a time on the
  /// pool, each thread reading through one block buffer inside the
  /// `max_memory_mb` staging budget: one pass with a fixed τ, two with
  /// τ = auto. The FullReport is bit-identical to Run on the resident
  /// trace.
  [[nodiscard]] FullReport RunStreaming(const PartitionedTrace& trace,
                                        StageTimings* timings = nullptr) const;

  /// Analyze while generating: `produce` hands each sealed slice to the
  /// visitor it is given (GenerateToPartitions(spill, visit) does), and the
  /// visitor walks the slice in place on the pool that comes with it,
  /// before it returns; the merged results feed the same report tail.
  /// Requires a fixed `session_tau` (> 0) and slices that (a) are
  /// time-sorted internally, (b) partition the user space into contiguous
  /// ascending ranges — every user's full history in exactly one slice.
  /// Throws Error when a slice's users do not ascend above the previous
  /// slice's. Under those invariants the FullReport is bit-identical to Run
  /// on the concatenated trace. `timings` counts the walks (in scan_s and
  /// sessionize_s) and the report tail, not the producer's own time.
  [[nodiscard]] FullReport RunSlices(
      const std::function<void(const SliceVisitor&)>& produce,
      StageTimings* timings = nullptr) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
};

}  // namespace mcloud::core
