// Columnar (structure-of-arrays) trace storage with dense user indexing.
//
// The AoS `std::vector<LogRecord>` layout spends ~80 bytes per record and
// forces every analysis stage to re-discover per-user structure through
// `unordered_map` probes on sparse 64-bit user ids. TraceStore holds the same
// Table 1 trace as one contiguous column per field, plus two indexes built
// once and shared by every stage:
//
//   * a dense user-id remap: `user_index()[row]` ∈ [0, users()), with
//     `user_ids()[dense]` recovering the original 64-bit id. Dense ids are
//     assigned in ascending original-id order, so iterating dense ids yields
//     users in a canonical, thread-count-independent order, and per-user
//     state can live in dense arrays instead of hash maps.
//   * per-day time partitions: contiguous [begin, end) row ranges of equal
//     calendar day (relative to `day_base`), so day-windowed stages skip
//     out-of-window rows wholesale and can shard deterministically.
//
// Enum columns are stored as `uint8_t`; the user column as dense `uint32_t`.
// The resilience tags (`outcome`, `attempt`) are runtime-only and not stored,
// exactly as in the binary trace formats (see trace/log_io.cc).
//
// Columns may be selectively absent (see ColumnMask and the v2 columnar
// reader in trace/log_io.h): an absent column reads back as zeros through
// ToRecords(). The analysis pipeline needs only kAnalysisColumns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/log_record.h"
#include "util/timeutil.h"

namespace mcloud {

class ThreadPool;

/// Bitmask naming the Table 1 columns of a TraceStore.
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
  [[nodiscard]] std::size_t rows() const { return timestamps_.size(); }
  [[nodiscard]] bool empty() const { return timestamps_.empty(); }
  [[nodiscard]] std::size_t users() const { return user_ids_.size(); }
  [[nodiscard]] UnixSeconds day_base() const { return day_base_; }
  [[nodiscard]] std::uint32_t columns_present() const { return present_; }
  [[nodiscard]] bool has(std::uint32_t mask) const {
    return (present_ & mask) == mask;
  }

  // ---- columns (empty when absent) ----
  [[nodiscard]] std::span<const std::int64_t> timestamps() const {
    return timestamps_;
  }
  [[nodiscard]] std::span<const std::uint8_t> device_types() const {
    return device_types_;
  }
  [[nodiscard]] std::span<const std::uint64_t> device_ids() const {
    return device_ids_;
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
    return request_types_;
  }
  [[nodiscard]] std::span<const std::uint8_t> directions() const {
    return directions_;
  }
  [[nodiscard]] std::span<const std::uint64_t> data_volumes() const {
    return data_volumes_;
  }
  [[nodiscard]] std::span<const double> processing_times() const {
    return processing_times_;
  }
  [[nodiscard]] std::span<const double> server_times() const {
    return server_times_;
  }
  [[nodiscard]] std::span<const double> avg_rtts() const { return avg_rtts_; }
  [[nodiscard]] std::span<const std::uint8_t> proxied() const {
    return proxied_;
  }

  [[nodiscard]] bool IsMobileRow(std::size_t row) const {
    return device_types_[row] != static_cast<std::uint8_t>(DeviceType::kPc);
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

  std::vector<std::int64_t> timestamps_;
  std::vector<std::uint8_t> device_types_;
  std::vector<std::uint64_t> device_ids_;
  std::vector<std::uint32_t> user_index_;
  std::vector<std::uint64_t> user_ids_;
  std::vector<std::uint8_t> request_types_;
  std::vector<std::uint8_t> directions_;
  std::vector<std::uint64_t> data_volumes_;
  std::vector<double> processing_times_;
  std::vector<double> server_times_;
  std::vector<double> avg_rtts_;
  std::vector<std::uint8_t> proxied_;

  std::vector<DayPartition> partitions_;
};

/// Mutable staging area used by FromRecords, the v2 reader, and the columnar
/// workload emitter: raw columns (original 64-bit user ids) go in, a
/// validated + indexed TraceStore comes out.
struct TraceStore::Builder {
  std::uint32_t present = kAllColumns;
  UnixSeconds day_base = kTraceStart;

  std::vector<std::int64_t> timestamps;
  std::vector<std::uint8_t> device_types;
  std::vector<std::uint64_t> device_ids;
  std::vector<std::uint64_t> raw_users;  ///< original ids; remapped on Build
  std::vector<std::uint8_t> request_types;
  std::vector<std::uint8_t> directions;
  std::vector<std::uint64_t> data_volumes;
  std::vector<double> processing_times;
  std::vector<double> server_times;
  std::vector<double> avg_rtts;
  std::vector<std::uint8_t> proxied;

  /// Optional pre-resolved dense mapping (v2 files store it, and resident
  /// generation resolves it from its count pass): when either
  /// is non-empty, `dense_users` holds each row's index into the `user_ids`
  /// table, `raw_users` is unused, and no remap pass runs (the table must
  /// be sorted ascending and unique).
  std::vector<std::uint64_t> user_ids;
  std::vector<std::uint32_t> dense_users;

  void Reserve(std::size_t n);
  void Append(const LogRecord& r);
  /// Validate, remap users, build the day partitions. Consumes the builder.
  /// The per-row checks (time order, enum ranges, dense user range) run
  /// over row shards of `pool` (inline when null); whatever the pool, the
  /// error thrown is the first failed check in that order.
  [[nodiscard]] TraceStore Build(ThreadPool* pool = nullptr) &&;
};

}  // namespace mcloud
