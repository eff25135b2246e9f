// Streaming analysis cores: the one implementation of the §3 stages that
// touch every record.
//
// Two incremental consumers of TraceRowBlock slices replace the method's
// per-stage scans:
//
//   * StreamingRowPass — Fig 1 hourly series, the Fig 3 inter-op interval
//     sketch (via a dense per-user last-op array instead of a hash map) and
//     the §2.2 record counts.
//   * StreamingPerUserPass — both sessionizations (full trace and mobile
//     rows), both per-user usage tables and the distinct-device count, from
//     dense per-user cursor arrays.
//
// Per-user state is keyed by the *global* uint32 user remap and survives
// across blocks and calendar-day partitions, so feeding the blocks of an
// out-of-core PartitionedTrace::Scan gives bit-identical results to feeding
// a resident TraceStore's day partitions. The only requirement is that
// blocks arrive in global row (= time) order, which every source
// guarantees. Within one user, row order is that user's time order, so
// every cursor folds the exact record sequence Sessionizer::Sessionize and
// BuildUserUsage see; a final sort by (user, begin) over unique keys
// restores their canonical order, so downstream consumers receive
// bit-identical inputs at every thread count. core/pipeline.cc's block
// walk is the one driver.
//
// Each pass may be restricted to a contiguous range of dense users
// (UserRange): it keeps state for those users only and skips every other
// row. Every statistic here is a fold over one user's rows or a sum of
// such folds, so passes over ranges that tile the user space run
// concurrently over the same blocks, and their results merged in range
// order equal the unrestricted pass's bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/interval_model.h"
#include "analysis/sessionizer.h"
#include "analysis/usage_patterns.h"
#include "analysis/workload_timeseries.h"
#include "trace/partitioned_trace.h"

namespace mcloud::analysis {

/// A contiguous range [begin, end) of global dense user indices; the
/// default covers every user (`end` is clamped to the user table's size).
struct UserRange {
  std::size_t begin = 0;
  std::size_t end = SIZE_MAX;
};

/// Row-order (time-order) results: Fig 1 series, Fig 3 sketch, §2.2 counts.
struct FusedRowPassResult {
  WorkloadTimeseries timeseries;
  /// Inter-file-operation gaps of mobile users as the jitter-binned log10
  /// sketch, mergeable across trace slices (the jitter is a stateless hash
  /// of (user, timestamp) and per-bin sums are integer-exact).
  LogBins intervals = MakeIntervalSketch();
  std::size_t mobile_records = 0;
  std::size_t android_records = 0;
};

/// Per-user results: sessions, usage tables, device/user counts.
struct FusedPerUserResult {
  /// Sessions over the full trace, in (user_id, begin) order.
  std::vector<Session> sessions;
  /// Sessions over the mobile rows only, in (user_id, begin) order.
  std::vector<Session> mobile_sessions;
  /// Per-user usage over the full trace, ascending user_id (one entry per
  /// user — every user has at least one record).
  std::vector<UserUsage> usage;
  /// Per-user usage over the mobile rows only, ascending user_id (users
  /// with no mobile record are absent).
  std::vector<UserUsage> mobile_usage;
  std::size_t mobile_users = 0;    ///< users with >= 1 mobile record
  std::size_t mobile_devices = 0;  ///< distinct mobile device ids
  /// The distinct mobile device ids themselves, sorted ascending — lets the
  /// pipeline union device sets across independently walked user ranges
  /// and trace slices (a count alone cannot be merged).
  std::vector<std::uint64_t> mobile_device_ids;
};

/// Hourly series, inter-op interval sketch, overview counts.
class StreamingRowPass {
 public:
  /// `user_ids` maps global dense index -> original id (the interval
  /// sketch's jitter is keyed by original user ids so every source and
  /// slicing computes identical jitter) and must outlive the pass;
  /// `trace_start`/`days` bound the Fig 1 hourly window; `day_base` anchors
  /// the calendar-day keys passed to Consume (same epoch as the trace).
  /// Only the rows of `users` are counted.
  StreamingRowPass(std::span<const std::uint64_t> user_ids,
                   UnixSeconds trace_start, int days, UnixSeconds day_base,
                   UserRange users = {});

  /// Feed the next block. All rows must be in calendar day `day`, and
  /// blocks must arrive in global time order.
  void Consume(std::int64_t day, const TraceRowBlock& block);

  /// The row-pass result (call once, after the last block).
  [[nodiscard]] FusedRowPassResult TakeResult();

 private:
  std::uint32_t first_user_;  ///< global dense index of local user 0
  std::span<const std::uint64_t> user_ids_;  ///< the range's original ids
  UnixSeconds day_base_;
  UnixSeconds trace_start_;
  std::int64_t window_begin_;
  std::int64_t window_end_;
  FusedRowPassResult out_;
  std::vector<std::int64_t> last_op_;
  std::vector<std::uint8_t> seen_;
};

/// Both sessionizations (full trace and mobile rows), both per-user usage
/// tables, distinct-device counts. Needs the session gap threshold `tau`.
///
/// Every mobile row feeds a mobile-filtered fold next to the full fold, so
/// the pass never needs a user's mobile/PC class up front: for a user
/// without PC rows the two folds see the same rows and agree, for a mixed
/// user the filtered fold is the mobile result, and a PC-only user has
/// none.
class StreamingPerUserPass {
 public:
  /// `user_ids` maps global dense index -> original id and must outlive the
  /// pass. Only the rows of `users` are folded.
  StreamingPerUserPass(std::span<const std::uint64_t> user_ids, Seconds tau,
                       UserRange users = {});

  /// Feed the next block (global time order; day boundaries irrelevant —
  /// sessions span days).
  void Consume(const TraceRowBlock& block);

  /// Flush open sessions, restore canonical (user, begin) order, assemble
  /// the result. Call once, after the last block.
  [[nodiscard]] FusedPerUserResult Finish();

 private:
  /// Open-session state for one user.
  struct SessionCursor {
    Session s;
    std::int64_t last_file_op = 0;
    bool has_file_op = false;
    bool open = false;
  };

  void Fold(SessionCursor& c, std::vector<Session>& sink,
            std::uint64_t user_id, std::int64_t t, bool is_op, bool is_store,
            bool mobile_row, std::uint64_t volume);

  std::uint32_t first_user_;  ///< global dense index of local user 0
  std::span<const std::uint64_t> user_ids_;  ///< the range's original ids
  Seconds tau_;
  std::vector<SessionCursor> cur_;
  std::vector<SessionCursor> mob_cur_;
  std::vector<UserUsage> usage_;
  std::vector<UserUsage> mob_usage_;
  std::vector<std::vector<std::uint64_t>> devs_;
  std::vector<Session> sessions_;
  std::vector<Session> mobile_sessions_;
};

}  // namespace mcloud::analysis
