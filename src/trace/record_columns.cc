#include "trace/record_columns.h"

#include <span>
#include <utility>

#include "trace/log_io.h"
#include "trace/trace_store.h"

namespace mcloud {

void RecordColumns::clear() {
  timestamps.clear();
  device_types.clear();
  device_ids.clear();
  user_ids.clear();
  request_types.clear();
  directions.clear();
  data_volumes.clear();
  processing_times.clear();
  server_times.clear();
  avg_rtts.clear();
  proxied.clear();
}

void RecordColumns::reserve(std::size_t n) {
  timestamps.reserve(n);
  device_types.reserve(n);
  device_ids.reserve(n);
  user_ids.reserve(n);
  request_types.reserve(n);
  directions.reserve(n);
  data_volumes.reserve(n);
  processing_times.reserve(n);
  server_times.reserve(n);
  avg_rtts.reserve(n);
  proxied.reserve(n);
}

void RecordColumns::Append(const LogRecord& r) {
  timestamps.push_back(r.timestamp);
  device_types.push_back(static_cast<std::uint8_t>(r.device_type));
  device_ids.push_back(r.device_id);
  user_ids.push_back(r.user_id);
  request_types.push_back(static_cast<std::uint8_t>(r.request_type));
  directions.push_back(static_cast<std::uint8_t>(r.direction));
  data_volumes.push_back(r.data_volume);
  processing_times.push_back(r.processing_time);
  server_times.push_back(r.server_time);
  avg_rtts.push_back(r.avg_rtt);
  proxied.push_back(r.proxied ? 1 : 0);
}

LogRecord RecordColumns::RecordAt(std::size_t i) const {
  LogRecord r;
  r.timestamp = timestamps[i];
  r.device_type = static_cast<DeviceType>(device_types[i]);
  r.device_id = device_ids[i];
  r.user_id = user_ids[i];
  r.request_type = static_cast<RequestType>(request_types[i]);
  r.direction = static_cast<Direction>(directions[i]);
  r.data_volume = data_volumes[i];
  r.processing_time = processing_times[i];
  r.server_time = server_times[i];
  r.avg_rtt = avg_rtts[i];
  r.proxied = proxied[i] != 0;
  return r;
}

std::vector<LogRecord> RecordColumns::ToRecords(
    std::span<const std::uint32_t> perm) const {
  std::vector<LogRecord> out;
  out.reserve(perm.size());
  for (const std::uint32_t i : perm) out.push_back(RecordAt(i));
  return out;
}

void RecordColumns::AppendAll(RecordColumns&& other) {
  if (empty() && capacity() == 0) {
    *this = std::move(other);
    return;
  }
  AppendCopy(other);
  other.clear();
}

void RecordColumns::AppendCopy(const RecordColumns& other) {
  const auto cat = [](auto& dst, const auto& src) {
    dst.insert(dst.end(), src.begin(), src.end());
  };
  cat(timestamps, other.timestamps);
  cat(device_types, other.device_types);
  cat(device_ids, other.device_ids);
  cat(user_ids, other.user_ids);
  cat(request_types, other.request_types);
  cat(directions, other.directions);
  cat(data_volumes, other.data_volumes);
  cat(processing_times, other.processing_times);
  cat(server_times, other.server_times);
  cat(avg_rtts, other.avg_rtts);
  cat(proxied, other.proxied);
}

std::span<const std::uint32_t> RecordColumns::TimeOrderPerm(
    RecordColumnsScratch& scratch) const {
  const RadixKey keys[3] = {
      RadixKey::I64(timestamps),
      RadixKey::U64(user_ids),
      RadixKey::U64(device_ids),
  };
  return scratch.sorter.Sort(size(), keys);
}

void RecordColumns::SortByTimeOrder(RecordColumnsScratch& scratch) {
  const std::size_t n = size();
  if (n < 2) return;
  const std::span<const std::uint32_t> perm = TimeOrderPerm(scratch);

  const auto gather = [&perm, n](auto& col, auto& tmp) {
    tmp.resize(n);
    for (std::size_t j = 0; j < n; ++j) tmp[j] = col[perm[j]];
    col.swap(tmp);
  };
  gather(timestamps, scratch.i64);
  gather(device_types, scratch.u8);
  gather(device_ids, scratch.u64);
  gather(user_ids, scratch.u64);
  gather(request_types, scratch.u8);
  gather(directions, scratch.u8);
  gather(data_volumes, scratch.u64);
  gather(processing_times, scratch.f64);
  gather(server_times, scratch.f64);
  gather(avg_rtts, scratch.f64);
  gather(proxied, scratch.u8);
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// One record's Table 1 fields folded in canonical field order; times as
/// the on-disk microsecond integers so AoS/columnar/file agree bit-exact.
inline std::uint64_t FoldRecord(std::uint64_t h, std::int64_t ts,
                                std::uint8_t dev, std::uint64_t dev_id,
                                std::uint64_t user, std::uint8_t req,
                                std::uint8_t dir, std::uint64_t vol,
                                double proc, double srv, double rtt,
                                std::uint8_t prox) {
  h = Fnv(h, static_cast<std::uint64_t>(ts));
  h = Fnv(h, dev);
  h = Fnv(h, dev_id);
  h = Fnv(h, user);
  h = Fnv(h, req);
  h = Fnv(h, dir);
  h = Fnv(h, vol);
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(proc)));
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(srv)));
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(rtt)));
  h = Fnv(h, prox);
  return h;
}

}  // namespace

std::uint64_t TraceFingerprint(std::span<const LogRecord> records) {
  std::uint64_t h = kFnvOffset;
  for (const LogRecord& r : records) {
    h = FoldRecord(h, r.timestamp, static_cast<std::uint8_t>(r.device_type),
                   r.device_id, r.user_id,
                   static_cast<std::uint8_t>(r.request_type),
                   static_cast<std::uint8_t>(r.direction), r.data_volume,
                   r.processing_time, r.server_time, r.avg_rtt,
                   r.proxied ? 1 : 0);
  }
  return h;
}

std::uint64_t TraceFingerprint(const TraceStore& store) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < store.rows(); ++i) {
    h = FoldRecord(h, store.timestamps()[i], store.device_types()[i],
                   store.device_ids()[i],
                   store.user_ids()[store.user_index()[i]],
                   store.request_types()[i], store.directions()[i],
                   store.data_volumes()[i], store.processing_times()[i],
                   store.server_times()[i], store.avg_rtts()[i],
                   store.proxied()[i]);
  }
  return h;
}

}  // namespace mcloud
