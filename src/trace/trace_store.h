// Columnar (structure-of-arrays) trace storage with dense user indexing.
//
// The AoS `std::vector<LogRecord>` layout spends ~80 bytes per record and
// forces every analysis stage to re-discover per-user structure through
// `unordered_map` probes on sparse 64-bit user ids. TraceStore holds the same
// Table 1 trace as one RecordColumns (trace/record_columns.h, the one
// declaration of the columns), plus two indexes built once and shared by
// every stage:
//
//   * a dense user-id remap: `user_index()[row]` ∈ [0, users()), with
//     `user_ids()[dense]` recovering the original 64-bit id. Dense ids are
//     assigned in ascending original-id order, so iterating dense ids yields
//     users in a canonical, thread-count-independent order, and per-user
//     state can live in dense arrays instead of hash maps. The held
//     columns' own `user_ids` column stays empty: a row's user is its
//     dense index.
//   * per-day time partitions: contiguous [begin, end) row ranges of equal
//     calendar day (relative to `day_base`), so day-windowed stages skip
//     out-of-window rows wholesale and can shard deterministically.
//
// Enum columns are stored as `uint8_t`; the user column as dense `uint32_t`.
// The resilience tags (`outcome`, `attempt`) are runtime-only and not stored,
// exactly as in the binary trace formats (see trace/log_io.cc).
//
// Columns may be selectively absent (see ColumnMask and the v2 columnar
// reader in trace/log_io.h): an absent column is empty, and reads back as
// zeros through ToRecords(). The analysis pipeline needs only
// kAnalysisColumns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/log_record.h"
#include "trace/record_columns.h"
#include "util/timeutil.h"

namespace mcloud {

class ThreadPool;

/// Bitmask naming the Table 1 columns of a TraceStore: bit c is column c of
/// RecordColumns::VisitColumn, which is also the v2 file's column order.
enum ColumnMask : std::uint32_t {
  kColTimestamp = 1u << 0,
  kColDeviceType = 1u << 1,
  kColDeviceId = 1u << 2,
  kColUser = 1u << 3,
  kColRequestType = 1u << 4,
  kColDirection = 1u << 5,
  kColDataVolume = 1u << 6,
  kColProcessingTime = 1u << 7,
  kColServerTime = 1u << 8,
  kColAvgRtt = 1u << 9,
  kColProxied = 1u << 10,
};

inline constexpr std::uint32_t kAllColumns =
    kColTimestamp | kColDeviceType | kColDeviceId | kColUser |
    kColRequestType | kColDirection | kColDataVolume | kColProcessingTime |
    kColServerTime | kColAvgRtt | kColProxied;

/// The columns AnalysisPipeline::Run(const TraceStore&) touches. Loading only
/// these from a v2 file costs ~31 bytes/record instead of ~55.
inline constexpr std::uint32_t kAnalysisColumns =
    kColTimestamp | kColDeviceType | kColDeviceId | kColUser |
    kColRequestType | kColDirection | kColDataVolume;

class TraceStore {
 public:
  /// One contiguous run of rows sharing a calendar day relative to
  /// day_base(): rows [begin, end) all have FloorDayIndex(ts - day_base)
  /// == day (see util/timeutil.h).
  struct DayPartition {
    std::int64_t day = 0;  ///< days since day_base (may be negative)
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// The day partitions of non-decreasing `timestamps` (at most UINT32_MAX
  /// of them), relative to `day_base`, in row order. Each day's rows are
  /// the prefix of the rest that shares the first row's day, so this costs
  /// one binary search per day, not a division per row.
  [[nodiscard]] static std::vector<DayPartition> DayPartitions(
      std::span<const std::int64_t> timestamps, UnixSeconds day_base);

  TraceStore() = default;

  /// Build the columnar store from a time-sorted AoS trace. `day_base`
  /// anchors the day partitions (defaults to the paper's trace epoch).
  /// Requires records.size() <= UINT32_MAX and non-decreasing timestamps.
  [[nodiscard]] static TraceStore FromRecords(
      std::span<const LogRecord> records, UnixSeconds day_base = kTraceStart);

  /// Materialize the AoS vector back (absent columns read as zeros; the
  /// runtime-only resilience tags come back at their defaults).
  [[nodiscard]] std::vector<LogRecord> ToRecords() const;

  // ---- dimensions ----
  [[nodiscard]] std::size_t rows() const { return columns_.size(); }
  [[nodiscard]] bool empty() const { return columns_.empty(); }
  [[nodiscard]] std::size_t users() const { return user_ids_.size(); }
  [[nodiscard]] UnixSeconds day_base() const { return day_base_; }
  [[nodiscard]] std::uint32_t columns_present() const { return present_; }
  [[nodiscard]] bool has(std::uint32_t mask) const {
    return (present_ & mask) == mask;
  }

  /// The held Table 1 columns (absent ones empty). Their `user_ids` column
  /// is empty: each row's user is user_index().
  [[nodiscard]] const RecordColumns& columns() const { return columns_; }

  // ---- columns (empty when absent) ----
  [[nodiscard]] std::span<const std::int64_t> timestamps() const {
    return columns_.timestamps;
  }
  [[nodiscard]] std::span<const std::uint8_t> device_types() const {
    return columns_.device_types;
  }
  [[nodiscard]] std::span<const std::uint64_t> device_ids() const {
    return columns_.device_ids;
  }
  /// Dense user index per row (uint32, ∈ [0, users())).
  [[nodiscard]] std::span<const std::uint32_t> user_index() const {
    return user_index_;
  }
  /// Original user id per dense index, ascending.
  [[nodiscard]] std::span<const std::uint64_t> user_ids() const {
    return user_ids_;
  }
  [[nodiscard]] std::span<const std::uint8_t> request_types() const {
    return columns_.request_types;
  }
  [[nodiscard]] std::span<const std::uint8_t> directions() const {
    return columns_.directions;
  }
  [[nodiscard]] std::span<const std::uint64_t> data_volumes() const {
    return columns_.data_volumes;
  }
  [[nodiscard]] std::span<const double> processing_times() const {
    return columns_.processing_times;
  }
  [[nodiscard]] std::span<const double> server_times() const {
    return columns_.server_times;
  }
  [[nodiscard]] std::span<const double> avg_rtts() const {
    return columns_.avg_rtts;
  }
  [[nodiscard]] std::span<const std::uint8_t> proxied() const {
    return columns_.proxied;
  }

  // ---- indexes ----
  [[nodiscard]] std::span<const DayPartition> day_partitions() const {
    return partitions_;
  }

  // log_io.cc's v2 reader fills columns directly and finalizes.
  struct Builder;

 private:
  friend struct Builder;

  /// Assigns the canonical dense remap from a raw original-id user column.
  void FinalizeFromRawUsers(std::span<const std::uint64_t> raw_users);

  std::uint32_t present_ = 0;
  UnixSeconds day_base_ = kTraceStart;

  RecordColumns columns_;  ///< `user_ids` stays empty
  std::vector<std::uint32_t> user_index_;
  std::vector<std::uint64_t> user_ids_;

  std::vector<DayPartition> partitions_;
};

/// Mutable staging area used by FromRecords, the v2 reader, and the columnar
/// workload generator: raw columns (original 64-bit user ids) go in, a
/// validated + indexed TraceStore comes out.
struct TraceStore::Builder {
  std::uint32_t present = kAllColumns;
  UnixSeconds day_base = kTraceStart;

  /// Every column in `present` holds one value per row; the others stay
  /// empty. `columns.user_ids` holds the original ids, remapped on Build,
  /// unless the users come pre-resolved below.
  RecordColumns columns;

  /// Optional pre-resolved dense mapping (v2 files store it, and resident
  /// generation resolves it from its count pass): when either
  /// is non-empty, `dense_users` holds each row's index into the `user_ids`
  /// table, `columns.user_ids` is unused, and no remap pass runs (the table
  /// must be sorted ascending and unique).
  std::vector<std::uint64_t> user_ids;
  std::vector<std::uint32_t> dense_users;

  /// Validate, remap users, build the day partitions. Consumes the builder.
  /// The per-row checks (time order, enum ranges, dense user range) run
  /// over row shards of `pool` (inline when null); whatever the pool, the
  /// error thrown is the first failed check in that order.
  [[nodiscard]] TraceStore Build(ThreadPool* pool = nullptr) &&;
};

namespace detail {

/// The per-row checks of TraceStore::Builder::Build, one bit each, in the
/// order it reports them.
enum RowCheck : std::uint8_t {
  kUnsorted = 1u << 0,
  kBadDeviceType = 1u << 1,
  kBadRequestType = 1u << 2,
  kBadDirection = 1u << 3,
  kBadDenseUser = 1u << 4,
};

/// The RowCheck bits rows [begin, end) of these columns fail (dense user
/// indices must be below `users`). Each check is its own reduction over one
/// column with no branch per row; an empty column is absent and passes.
[[nodiscard]] std::uint8_t CheckRows(
    std::span<const std::int64_t> ts,
    std::span<const std::uint8_t> device_types,
    std::span<const std::uint8_t> request_types,
    std::span<const std::uint8_t> directions,
    std::span<const std::uint32_t> dense_users, std::size_t users,
    std::size_t begin, std::size_t end);

/// What Build says of the first check that `failed` names, in RowCheck
/// order ("" when it names none).
[[nodiscard]] const char* RowCheckMessage(std::uint8_t failed);

}  // namespace detail

}  // namespace mcloud
