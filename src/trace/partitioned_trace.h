// Partitioned on-disk traces: the spill format of the out-of-core pipeline.
//
// A partitioned trace is a directory of time-sorted MCLOGv02 run files plus
// a MANIFEST. The workload generator spills its bounded in-memory buffer as
// one sorted slice at a time; the writer splits every slice into contiguous
// calendar-day segments (relative to `day_base`, same key as TraceStore's
// day partitions) and writes each segment as its own run file. A calendar
// day therefore maps to the set of runs carrying its rows — one per spill
// that touched the day — and the reader streams the trace back one day at a
// time through a k-way merge of that day's runs.
//
// Determinism (see DESIGN.md "Out-of-core pipeline"): runs are merged
// stably by the full record time order (timestamp, user, device), ties
// across runs broken by manifest order. Since every run is a stably-sorted
// contiguous slice of the generator's user-ordered emission, the merged
// stream is exactly std::stable_sort of the whole emission — byte-identical
// to the resident GenerateColumnar() row order at every thread count and
// every spill-buffer size.
//
// Truncation safety: Open() validates every run file against its MANIFEST
// entry through detail::ReadV2FileInfo (magic + column mask + full expected
// byte length), so a missing or short partition fails loudly instead of
// silently dropping a day.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "trace/log_io.h"
#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"

namespace mcloud {

/// One structure-of-arrays slice of analysis-column rows, in time order.
/// `users` holds *global* dense user indices (ascending-original-id remap
/// over the whole trace — identical to TraceStore::user_index()).
struct TraceRowBlock {
  std::span<const std::int64_t> timestamps;
  std::span<const std::uint8_t> device_types;
  std::span<const std::uint64_t> device_ids;
  std::span<const std::uint32_t> users;
  std::span<const std::uint8_t> request_types;
  std::span<const std::uint8_t> directions;
  std::span<const std::uint64_t> data_volumes;

  [[nodiscard]] std::size_t rows() const { return timestamps.size(); }
};

/// View of rows [begin, end) of a resident store as a TraceRowBlock — how a
/// resident store feeds the same streaming cores a partitioned trace feeds.
/// Requires kAnalysisColumns.
[[nodiscard]] TraceRowBlock BlockOf(const TraceStore& store, std::size_t begin,
                                    std::size_t end);

/// Writes a partitioned trace: sorted slices in, per-day run files +
/// MANIFEST out. Slices must arrive in spill order; Finish() seals the
/// directory. Not thread-safe (one spiller at a time by design).
class PartitionedTraceWriter {
 public:
  /// `dir` must exist and be writable; existing run files are overwritten.
  PartitionedTraceWriter(std::filesystem::path dir, UnixSeconds day_base);

  /// Spill one slice sorted by LogRecordTimeOrder: splits it into
  /// contiguous calendar-day segments and writes each segment as its own
  /// MCLOGv02 run file, without materializing records or per-run
  /// TraceStores. Empty slices are no-ops.
  void WriteSortedSlice(const RecordColumns& slice);

  /// Write the MANIFEST. No further WriteSortedSlice calls afterwards.
  void Finish();

  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::size_t run_files() const { return runs_.size(); }

 private:
  struct RunEntry {
    std::int64_t day = 0;
    std::uint64_t rows = 0;
    std::string file;
  };

  std::filesystem::path dir_;
  UnixSeconds day_base_;
  std::uint64_t records_ = 0;
  std::vector<RunEntry> runs_;
  V2RunScratch run_scratch_;  ///< reused across columnar runs
  bool finished_ = false;
};

/// Reader over a sealed partitioned trace. Open() validates the MANIFEST
/// and every run file (loud failure on any missing/short partition) and
/// builds the global user table; Scan() streams the rows back in global
/// time order under a bounded staging budget.
class PartitionedTrace {
 public:
  /// Sink for Scan: one time-ordered block of rows, all in calendar day
  /// `day` (relative to day_base()). Days arrive in ascending order; one
  /// day spans multiple calls when it exceeds the staging budget.
  using BlockSink =
      std::function<void(std::int64_t day, const TraceRowBlock& block)>;

  /// Validate the directory and build the cross-partition indexes: the
  /// global user table (sorted union of the run tables — the same
  /// ascending-original-id dense remap TraceStore assigns) and each run's
  /// local-to-global remap. Throws ParseError on a malformed MANIFEST or
  /// any missing/truncated/mismatched run file.
  [[nodiscard]] static PartitionedTrace Open(const std::filesystem::path& dir);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::size_t users() const { return user_ids_.size(); }
  [[nodiscard]] UnixSeconds day_base() const { return day_base_; }
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
  /// Original user id per global dense index, ascending.
  [[nodiscard]] std::span<const std::uint64_t> user_ids() const {
    return user_ids_;
  }

  /// Stream every record in global time order, one calendar day at a time,
  /// as analysis-column blocks with global dense user ids. `staging_rows`
  /// bounds the resident rows (split between the per-run read buffers of
  /// the day's k-way merge and the output staging block). Deterministic:
  /// the merge order is a pure function of the on-disk bytes, independent
  /// of `staging_rows`.
  void Scan(std::size_t staging_rows, const BlockSink& sink) const;

 private:
  struct Run {
    std::filesystem::path path;
    std::int64_t day = 0;
    std::uint64_t rows = 0;
    /// Column byte offsets in file order of kAnalysisColumns.
    std::uint64_t col_offset[7] = {};
    /// Local dense user id -> global dense user id.
    std::vector<std::uint32_t> local_to_global;
  };

  PartitionedTrace() = default;

  UnixSeconds day_base_ = 0;
  std::uint64_t rows_ = 0;
  std::vector<Run> runs_;
  std::vector<std::uint64_t> user_ids_;
};

}  // namespace mcloud
