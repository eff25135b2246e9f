#include "trace/trace_store.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace mcloud {

void TraceStore::Builder::Reserve(std::size_t n) {
  timestamps.reserve(n);
  device_types.reserve(n);
  device_ids.reserve(n);
  raw_users.reserve(n);
  request_types.reserve(n);
  directions.reserve(n);
  data_volumes.reserve(n);
  if (present & kColProcessingTime) processing_times.reserve(n);
  if (present & kColServerTime) server_times.reserve(n);
  if (present & kColAvgRtt) avg_rtts.reserve(n);
  if (present & kColProxied) proxied.reserve(n);
}

void TraceStore::Builder::Append(const LogRecord& r) {
  timestamps.push_back(r.timestamp);
  device_types.push_back(static_cast<std::uint8_t>(r.device_type));
  device_ids.push_back(r.device_id);
  raw_users.push_back(r.user_id);
  request_types.push_back(static_cast<std::uint8_t>(r.request_type));
  directions.push_back(static_cast<std::uint8_t>(r.direction));
  data_volumes.push_back(r.data_volume);
  if (present & kColProcessingTime) processing_times.push_back(r.processing_time);
  if (present & kColServerTime) server_times.push_back(r.server_time);
  if (present & kColAvgRtt) avg_rtts.push_back(r.avg_rtt);
  if (present & kColProxied) proxied.push_back(r.proxied ? 1 : 0);
}

namespace {

/// Per-row check failures, one bit each, in the order Build reports them.
enum RowCheck : std::uint8_t {
  kUnsorted = 1u << 0,
  kBadDeviceType = 1u << 1,
  kBadRequestType = 1u << 2,
  kBadDirection = 1u << 3,
  kBadDenseUser = 1u << 4,
};

/// The RowCheck bits rows [begin, end) fail. Each check is its own
/// branch-free OR reduction over one column.
std::uint8_t CheckRows(std::span<const std::int64_t> ts,
                       std::span<const std::uint8_t> device_types,
                       std::span<const std::uint8_t> request_types,
                       std::span<const std::uint8_t> directions,
                       std::span<const std::uint32_t> dense_users,
                       std::size_t users, std::size_t begin,
                       std::size_t end) {
  const auto any = [begin, end](auto column, auto bad) {
    bool found = false;
    if (column.empty()) return found;  // an absent column
    for (std::size_t i = begin; i < end; ++i) found |= bad(column[i]);
    return found;
  };
  bool unsorted = false;
  for (std::size_t i = std::max<std::size_t>(begin, 1); i < end; ++i)
    unsorted |= ts[i] < ts[i - 1];
  std::uint8_t failed = unsorted ? kUnsorted : 0;
  if (any(device_types, [](std::uint8_t d) { return d > 2; }))
    failed |= kBadDeviceType;
  if (any(request_types, [](std::uint8_t t) { return t > 1; }))
    failed |= kBadRequestType;
  if (any(directions, [](std::uint8_t d) { return d > 1; }))
    failed |= kBadDirection;
  if (any(dense_users, [users](std::uint32_t u) { return u >= users; }))
    failed |= kBadDenseUser;
  return failed;
}

}  // namespace

TraceStore TraceStore::Builder::Build(ThreadPool* pool) && {
  TraceStore s;
  s.present_ = present;
  s.day_base_ = day_base;
  s.timestamps_ = std::move(timestamps);
  s.device_types_ = std::move(device_types);
  s.device_ids_ = std::move(device_ids);
  s.request_types_ = std::move(request_types);
  s.directions_ = std::move(directions);
  s.data_volumes_ = std::move(data_volumes);
  s.processing_times_ = std::move(processing_times);
  s.server_times_ = std::move(server_times);
  s.avg_rtts_ = std::move(avg_rtts);
  s.proxied_ = std::move(proxied);

  const std::size_t n = s.timestamps_.size();
  MCLOUD_REQUIRE(n <= UINT32_MAX, "trace too large for TraceStore");
  MCLOUD_REQUIRE((present & kColTimestamp) && (present & kColUser),
                 "timestamp and user columns are mandatory");
  const auto column_sized = [n](std::size_t size, std::uint32_t col,
                                std::uint32_t mask) {
    return (mask & col) ? size == n : size == 0;
  };
  MCLOUD_REQUIRE(column_sized(s.device_types_.size(), kColDeviceType, present) &&
                     column_sized(s.device_ids_.size(), kColDeviceId, present) &&
                     column_sized(s.request_types_.size(), kColRequestType,
                                  present) &&
                     column_sized(s.directions_.size(), kColDirection, present) &&
                     column_sized(s.data_volumes_.size(), kColDataVolume,
                                  present) &&
                     column_sized(s.processing_times_.size(),
                                  kColProcessingTime, present) &&
                     column_sized(s.server_times_.size(), kColServerTime,
                                  present) &&
                     column_sized(s.avg_rtts_.size(), kColAvgRtt, present) &&
                     column_sized(s.proxied_.size(), kColProxied, present),
                 "column length mismatch");

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
                      shard_failed[shard] = CheckRows(
                          s.timestamps_, s.device_types_, s.request_types_,
                          s.directions_, checked_dense, user_ids.size(),
                          begin, end);
                    });
  std::uint8_t failed = 0;
  for (const std::uint8_t f : shard_failed) failed |= f;
  MCLOUD_REQUIRE(!(failed & kUnsorted), "trace must be time-sorted");
  MCLOUD_REQUIRE(!(failed & kBadDeviceType), "bad device type");
  MCLOUD_REQUIRE(!(failed & kBadRequestType), "bad request type");
  MCLOUD_REQUIRE(!(failed & kBadDirection), "bad direction");

  MCLOUD_REQUIRE(user_rows == n, "user column length mismatch");
  if (pre_resolved) {
    // Pre-resolved dense mapping (the v2 on-disk layout).
    MCLOUD_REQUIRE(std::is_sorted(user_ids.begin(), user_ids.end()) &&
                       std::adjacent_find(user_ids.begin(), user_ids.end()) ==
                           user_ids.end(),
                   "user id table must be sorted and unique");
    MCLOUD_REQUIRE(!(failed & kBadDenseUser), "dense user index out of range");
    s.user_ids_ = std::move(user_ids);
    s.user_index_ = std::move(dense_users);
  } else {
    s.FinalizeFromRawUsers(raw_users);
  }
  s.partitions_ = DayPartitions(s.timestamps_, s.day_base_);
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
  b.Reserve(records.size());
  for (const LogRecord& r : records) b.Append(r);
  return std::move(b).Build();
}

std::vector<LogRecord> TraceStore::ToRecords() const {
  std::vector<LogRecord> out(rows());
  for (std::size_t i = 0; i < out.size(); ++i) {
    LogRecord& r = out[i];
    r.timestamp = timestamps_[i];
    if (!device_types_.empty())
      r.device_type = static_cast<DeviceType>(device_types_[i]);
    if (!device_ids_.empty()) r.device_id = device_ids_[i];
    r.user_id = user_ids_[user_index_[i]];
    if (!request_types_.empty())
      r.request_type = static_cast<RequestType>(request_types_[i]);
    if (!directions_.empty())
      r.direction = static_cast<Direction>(directions_[i]);
    if (!data_volumes_.empty()) r.data_volume = data_volumes_[i];
    if (!processing_times_.empty()) r.processing_time = processing_times_[i];
    if (!server_times_.empty()) r.server_time = server_times_[i];
    if (!avg_rtts_.empty()) r.avg_rtt = avg_rtts_[i];
    if (!proxied_.empty()) r.proxied = proxied_[i] != 0;
  }
  return out;
}

}  // namespace mcloud
