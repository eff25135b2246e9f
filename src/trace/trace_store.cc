#include "trace/trace_store.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace mcloud {

namespace detail {

std::uint8_t CheckRows(std::span<const std::int64_t> ts,
                       std::span<const std::uint8_t> device_types,
                       std::span<const std::uint8_t> request_types,
                       std::span<const std::uint8_t> directions,
                       std::span<const std::uint32_t> dense_users,
                       std::size_t users, std::size_t begin,
                       std::size_t end) {
  // The largest value of the rows: a max reduction, which vectorizes; -1
  // for an absent column or no rows.
  const auto largest = [begin, end](auto column) -> std::int64_t {
    if (column.empty() || begin >= end) return -1;
    auto m = column[begin];
    for (std::size_t i = begin + 1; i < end; ++i) m = std::max(m, column[i]);
    return m;
  };
  std::uint32_t unsorted = 0;
  for (std::size_t i = std::max<std::size_t>(begin, 1); i < end; ++i)
    unsorted |= static_cast<std::uint32_t>(ts[i] < ts[i - 1]);
  std::uint8_t failed = unsorted ? kUnsorted : 0;
  if (largest(device_types) > 2) failed |= kBadDeviceType;
  if (largest(request_types) > 1) failed |= kBadRequestType;
  if (largest(directions) > 1) failed |= kBadDirection;
  if (largest(dense_users) >= static_cast<std::int64_t>(users))
    failed |= kBadDenseUser;
  return failed;
}

const char* RowCheckMessage(std::uint8_t failed) {
  if (failed & kUnsorted) return "trace must be time-sorted";
  if (failed & kBadDeviceType) return "bad device type";
  if (failed & kBadRequestType) return "bad request type";
  if (failed & kBadDirection) return "bad direction";
  if (failed & kBadDenseUser) return "dense user index out of range";
  return "";
}

}  // namespace detail

TraceStore TraceStore::Builder::Build(ThreadPool* pool) && {
  TraceStore s;
  s.present_ = present;
  s.day_base_ = day_base;
  s.columns_ = std::move(columns);
  // The store keeps dense users only; the raw ids live until the remap.
  const std::vector<std::uint64_t> raw_users = std::move(s.columns_.user_ids);
  const RecordColumns& cols = s.columns_;

  const std::size_t n = cols.size();
  MCLOUD_REQUIRE(n <= UINT32_MAX, "trace too large for TraceStore");
  MCLOUD_REQUIRE((present & kColTimestamp) && (present & kColUser),
                 "timestamp and user columns are mandatory");
  // Each column in the mask holds a row per row, the others none; the
  // user column is checked below, after the rows.
  bool sized = true;
  for (std::size_t c = 0; c < RecordColumns::kColumnCount; ++c) {
    if ((1u << c) == kColUser) continue;
    RecordColumns::VisitColumn(c, [&](auto column) {
      sized &= (cols.*column).size() == ((present >> c) & 1 ? n : 0);
    });
  }
  MCLOUD_REQUIRE(sized, "column length mismatch");

  // Each shard runs every row check over its rows; the shards' failures
  // are OR-ed and reported in one fixed order, so the error never depends
  // on which shard saw it first.
  const bool pre_resolved = !user_ids.empty() || !dense_users.empty();
  const std::size_t user_rows =
      pre_resolved ? dense_users.size() : raw_users.size();
  std::span<const std::uint32_t> checked_dense;  // only with a row per row
  if (pre_resolved && user_rows == n) checked_dense = dense_users;
  std::vector<std::uint8_t> shard_failed(ShardCount(pool, n), 0);
  ParallelForShards(pool, n,
                    [&](std::size_t shard, std::size_t begin, std::size_t end) {
                      shard_failed[shard] = detail::CheckRows(
                          cols.timestamps, cols.device_types,
                          cols.request_types, cols.directions, checked_dense,
                          user_ids.size(), begin, end);
                    });
  std::uint8_t failed = 0;
  for (const std::uint8_t f : shard_failed) failed |= f;
  const std::uint8_t bad_rows = failed & ~detail::kBadDenseUser;
  MCLOUD_REQUIRE(bad_rows == 0, detail::RowCheckMessage(bad_rows));

  MCLOUD_REQUIRE(user_rows == n, "user column length mismatch");
  if (pre_resolved) {
    // Pre-resolved dense mapping (the v2 on-disk layout).
    MCLOUD_REQUIRE(std::is_sorted(user_ids.begin(), user_ids.end()) &&
                       std::adjacent_find(user_ids.begin(), user_ids.end()) ==
                           user_ids.end(),
                   "user id table must be sorted and unique");
    MCLOUD_REQUIRE(!(failed & detail::kBadDenseUser),
                   "dense user index out of range");
    s.user_ids_ = std::move(user_ids);
    s.user_index_ = std::move(dense_users);
  } else {
    s.FinalizeFromRawUsers(raw_users);
  }
  s.partitions_ = DayPartitions(cols.timestamps, s.day_base_);
  return s;
}

void TraceStore::FinalizeFromRawUsers(std::span<const std::uint64_t> raw) {
  const std::size_t n = raw.size();
  // First pass: first-seen dense ids via one hash probe per row.
  std::unordered_map<std::uint64_t, std::uint32_t> first_seen;
  first_seen.reserve(n / 32 + 16);
  std::vector<std::uint32_t> seen_index(n);
  std::vector<std::uint64_t> ids_in_first_seen_order;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = first_seen.try_emplace(
        raw[i], static_cast<std::uint32_t>(ids_in_first_seen_order.size()));
    if (inserted) ids_in_first_seen_order.push_back(raw[i]);
    seen_index[i] = it->second;
  }
  // Canonicalize: dense id = rank of the original id in ascending order, so
  // dense iteration order never depends on record order or sharding.
  const std::size_t u = ids_in_first_seen_order.size();
  std::vector<std::uint32_t> by_id(u);
  for (std::size_t i = 0; i < u; ++i) by_id[i] = static_cast<std::uint32_t>(i);
  std::sort(by_id.begin(), by_id.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return ids_in_first_seen_order[a] < ids_in_first_seen_order[b];
            });
  std::vector<std::uint32_t> rank_of(u);
  user_ids_.resize(u);
  for (std::size_t r = 0; r < u; ++r) {
    rank_of[by_id[r]] = static_cast<std::uint32_t>(r);
    user_ids_[r] = ids_in_first_seen_order[by_id[r]];
  }
  user_index_.resize(n);
  for (std::size_t i = 0; i < n; ++i) user_index_[i] = rank_of[seen_index[i]];
}

std::vector<TraceStore::DayPartition> TraceStore::DayPartitions(
    std::span<const std::int64_t> timestamps, UnixSeconds day_base) {
  MCLOUD_REQUIRE(timestamps.size() <= UINT32_MAX,
                 "day partitions index rows in 32 bits");
  std::vector<DayPartition> parts;
  const auto first = timestamps.begin();
  for (auto begin = first; begin != timestamps.end();) {
    const std::int64_t day = FloorDayIndex(*begin - day_base);
    const auto end = std::partition_point(
        begin, timestamps.end(), [&](std::int64_t t) {
          return FloorDayIndex(t - day_base) == day;
        });
    parts.push_back({day, static_cast<std::uint32_t>(begin - first),
                     static_cast<std::uint32_t>(end - first)});
    begin = end;
  }
  return parts;
}

TraceStore TraceStore::FromRecords(std::span<const LogRecord> records,
                                   UnixSeconds day_base) {
  Builder b;
  b.day_base = day_base;
  b.columns.reserve(records.size());
  for (const LogRecord& r : records) b.columns.Append(r);
  return std::move(b).Build();
}

std::vector<LogRecord> TraceStore::ToRecords() const {
  const RecordColumns& c = columns_;
  std::vector<LogRecord> out(rows());
  for (std::size_t i = 0; i < out.size(); ++i) {
    LogRecord& r = out[i];
    r.timestamp = c.timestamps[i];
    if (!c.device_types.empty())
      r.device_type = static_cast<DeviceType>(c.device_types[i]);
    if (!c.device_ids.empty()) r.device_id = c.device_ids[i];
    r.user_id = user_ids_[user_index_[i]];
    if (!c.request_types.empty())
      r.request_type = static_cast<RequestType>(c.request_types[i]);
    if (!c.directions.empty())
      r.direction = static_cast<Direction>(c.directions[i]);
    if (!c.data_volumes.empty()) r.data_volume = c.data_volumes[i];
    if (!c.processing_times.empty())
      r.processing_time = c.processing_times[i];
    if (!c.server_times.empty()) r.server_time = c.server_times[i];
    if (!c.avg_rtts.empty()) r.avg_rtt = c.avg_rtts[i];
    if (!c.proxied.empty()) r.proxied = c.proxied[i] != 0;
  }
  return out;
}

}  // namespace mcloud
