// Partitioned on-disk traces: the spill format of the out-of-core pipeline.
//
// A partitioned trace is a directory of time-sorted MCLOGv02 run files plus
// a MANIFEST. The workload generator spills its bounded in-memory buffer as
// one sorted slice at a time; every slice holds the complete history of a
// contiguous user range, above the previous slice's. The writer splits each
// slice into contiguous calendar-day segments (relative to `day_base`, same
// key as TraceStore's day partitions) and writes each segment as its own
// run file, in day order.
//
// The reader needs no global time order. Open() cuts the MANIFEST's run
// list into groups wherever the day stops strictly rising, so each group is
// one spill (or consecutive spills whose days do not overlap), and requires
// the groups' user ranges to be disjoint and ascending. A group's runs read
// in manifest order are then time-sorted, and they hold the complete
// history of every user in the group. The per-user analysis folds walk the
// groups one at a time, independently (see DESIGN.md "Out-of-core
// pipeline"); LoadTraceForReplay rebuilds the global time order with one
// stable in-memory sort.
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
#include "util/parallel.h"

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
/// directory. Not thread-safe (one spiller at a time by design); one slice's
/// run files are written as tasks on the caller's pool.
///
/// Contract: every slice holds the complete history of its users, and its
/// smallest raw user id is above the previous slice's largest. The writer
/// checks the ordering, so every directory it seals is one that
/// PartitionedTrace::Open accepts.
class PartitionedTraceWriter {
 public:
  /// `dir` must exist and be writable; existing run files are overwritten.
  PartitionedTraceWriter(std::filesystem::path dir, UnixSeconds day_base);

  /// Spill one slice sorted by LogRecordTimeOrder: splits it into
  /// contiguous calendar-day segments and writes each segment as its own
  /// MCLOGv02 run file, without materializing records or per-run
  /// TraceStores. The runs are named in day order up front and written one
  /// pool task each (inline when `pool` is null), so the files, their names
  /// and the MANIFEST are the same at every pool size. Empty slices are
  /// no-ops. Throws Error, before writing anything, when the slice's
  /// smallest user id is not above every user id of the slices before it.
  /// When run files fail to write, throws the earliest day's error and
  /// records none of the slice's runs.
  void WriteSortedSlice(const RecordColumns& slice, ThreadPool* pool = nullptr);

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
  /// Largest user id of the slices written so far.
  std::uint64_t last_user_ = 0;
  std::vector<RunEntry> runs_;
  bool finished_ = false;
};

/// Reader over a sealed partitioned trace. Open() validates the MANIFEST
/// and every run file (loud failure on any missing/short partition), cuts
/// the runs into groups and builds the global user table; ReadGroup()
/// streams one group's rows back through one bounded block buffer.
class PartitionedTrace {
 public:
  /// Sink for ReadGroup: one time-ordered block of rows, all in calendar
  /// day `day` (relative to day_base()). Days arrive in ascending order;
  /// one day spans multiple calls when it exceeds the block size.
  using BlockSink =
      std::function<void(std::int64_t day, const TraceRowBlock& block)>;

  /// A maximal stretch of MANIFEST runs whose days strictly rise: the runs
  /// [first_run, end_run), holding the complete history of the global
  /// dense users [user_begin, user_end).
  struct Group {
    std::size_t first_run = 0;
    std::size_t end_run = 0;
    std::size_t user_begin = 0;
    std::size_t user_end = 0;
  };

  /// Validate the directory and build the cross-partition indexes: the
  /// groups, the global user table (the groups' sorted user tables
  /// concatenated — the same ascending-original-id dense remap TraceStore
  /// assigns) and each run's local-to-global remap. Throws ParseError on a
  /// malformed MANIFEST, any missing/truncated/mismatched run file, or
  /// groups whose user ranges are not disjoint and ascending.
  [[nodiscard]] static PartitionedTrace Open(const std::filesystem::path& dir);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::size_t users() const { return user_ids_.size(); }
  [[nodiscard]] UnixSeconds day_base() const { return day_base_; }
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
  /// Original user id per global dense index, ascending.
  [[nodiscard]] std::span<const std::uint64_t> user_ids() const {
    return user_ids_;
  }
  /// The groups in MANIFEST order, so in ascending user order.
  [[nodiscard]] std::span<const Group> groups() const { return groups_; }

  /// Stream group `g`'s rows, run by run in day order, as analysis-column
  /// blocks of at most `block_rows` rows with global dense user ids. Every
  /// user's rows arrive in time order. One block buffer serves all of the
  /// group's runs. Safe to call concurrently, on the same group or not.
  void ReadGroup(std::size_t g, std::size_t block_rows,
                 const BlockSink& sink) const;

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
  std::vector<Group> groups_;
  std::vector<std::uint64_t> user_ids_;
};

}  // namespace mcloud
