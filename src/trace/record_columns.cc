#include "trace/record_columns.h"

#include <bit>
#include <span>
#include <tuple>
#include <type_traits>

#include "trace/log_io.h"
#include "trace/trace_store.h"
#include "util/error.h"
#include "util/fnv.h"

namespace mcloud {

// VisitColumn must name every column: one left out of its switch would be
// skipped by reserve, resize, the gather and the generator's column
// sizing.
static_assert(sizeof(RecordColumns) ==
              RecordColumns::kColumnCount * sizeof(std::vector<std::uint8_t>));

namespace {

/// Whether VisitColumn's column at ColumnMask bit `bit` is `member`.
template <typename Member>
constexpr bool VisitsAt(std::uint32_t bit, Member member) {
  bool same = false;
  RecordColumns::VisitColumn(std::countr_zero(bit), [&](auto column) {
    if constexpr (std::is_same_v<decltype(column), Member>)
      same = column == member;
  });
  return same;
}

}  // namespace

// ColumnMask bit c is column c: a store's mask, the builder's length check
// and the v2 writer and reader all name a column by that one index.
static_assert(VisitsAt(kColTimestamp, &RecordColumns::timestamps) &&
              VisitsAt(kColDeviceType, &RecordColumns::device_types) &&
              VisitsAt(kColDeviceId, &RecordColumns::device_ids) &&
              VisitsAt(kColUser, &RecordColumns::user_ids) &&
              VisitsAt(kColRequestType, &RecordColumns::request_types) &&
              VisitsAt(kColDirection, &RecordColumns::directions) &&
              VisitsAt(kColDataVolume, &RecordColumns::data_volumes) &&
              VisitsAt(kColProcessingTime, &RecordColumns::processing_times) &&
              VisitsAt(kColServerTime, &RecordColumns::server_times) &&
              VisitsAt(kColAvgRtt, &RecordColumns::avg_rtts) &&
              VisitsAt(kColProxied, &RecordColumns::proxied) &&
              kAllColumns == (1u << RecordColumns::kColumnCount) - 1);

void RecordColumns::reserve(std::size_t n) {
  ForEachColumn([this, n](auto column) { (this->*column).reserve(n); });
}

void RecordColumns::resize(std::size_t n) {
  ForEachColumn([this, n](auto column) { (this->*column).resize(n); });
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

std::span<const std::uint32_t> RecordColumns::TimeOrderPerm(
    RecordColumnsScratch& scratch, ThreadPool& pool) const {
  const RadixKey keys[3] = {
      RadixKey::I64(timestamps),
      RadixKey::U64(user_ids),
      RadixKey::U64(device_ids),
  };
  return scratch.sorter.Sort(size(), keys, &pool);
}

void RecordColumns::SortByTimeOrder(RecordColumnsScratch& scratch,
                                    ThreadPool& pool) {
  if (size() < 2) return;
  Permute(TimeOrderPerm(scratch, pool), scratch, pool);
}

void RecordColumns::Permute(std::span<const std::uint32_t> perm,
                            RecordColumnsScratch& scratch, ThreadPool& pool) {
  const std::size_t n = size();
  MCLOUD_REQUIRE(perm.size() == n, "permutation length must match the rows");

  // One gather target per element type, sized (and zero-filled) at once,
  // one task each. Then one column at a time, each over row shards, so no
  // more targets are ever live.
  std::apply(
      [&](auto&... target) {
        ParallelInvoke(pool,
                       {[&target, n] { ResizeForOverwrite(target, n); }...});
      },
      scratch.targets);
  ForEachColumn([&](auto column) {
    auto& col = this->*column;
    auto& tmp =
        std::get<std::remove_reference_t<decltype(col)>>(scratch.targets);
    ParallelForShards(pool, n,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t j = begin; j < end; ++j)
                          tmp[j] = col[perm[j]];
                      });
    col.swap(tmp);
  });
}

namespace {

/// One record's Table 1 fields folded in canonical field order; times as
/// the on-disk microsecond integers so AoS/columnar/file agree bit-exact.
inline void FoldRecord(Fnv1a& f, std::int64_t ts, std::uint8_t dev,
                       std::uint64_t dev_id, std::uint64_t user,
                       std::uint8_t req, std::uint8_t dir, std::uint64_t vol,
                       double proc, double srv, double rtt,
                       std::uint8_t prox) {
  f.U64(static_cast<std::uint64_t>(ts));
  f.U8(dev);
  f.U64(dev_id);
  f.U64(user);
  f.U8(req);
  f.U8(dir);
  f.U64(vol);
  f.U64(static_cast<std::uint64_t>(detail::ToMicros(proc)));
  f.U64(static_cast<std::uint64_t>(detail::ToMicros(srv)));
  f.U64(static_cast<std::uint64_t>(detail::ToMicros(rtt)));
  f.U8(prox);
}

}  // namespace

std::uint64_t TraceFingerprint(std::span<const LogRecord> records) {
  Fnv1a f;
  for (const LogRecord& r : records) {
    FoldRecord(f, r.timestamp, static_cast<std::uint8_t>(r.device_type),
               r.device_id, r.user_id,
               static_cast<std::uint8_t>(r.request_type),
               static_cast<std::uint8_t>(r.direction), r.data_volume,
               r.processing_time, r.server_time, r.avg_rtt,
               r.proxied ? 1 : 0);
  }
  return f.value();
}

std::uint64_t TraceFingerprint(const TraceStore& store) {
  Fnv1a f;
  for (std::size_t i = 0; i < store.rows(); ++i) {
    FoldRecord(f, store.timestamps()[i], store.device_types()[i],
               store.device_ids()[i], store.user_ids()[store.user_index()[i]],
               store.request_types()[i], store.directions()[i],
               store.data_volumes()[i], store.processing_times()[i],
               store.server_times()[i], store.avg_rtts()[i],
               store.proxied()[i]);
  }
  return f.value();
}

}  // namespace mcloud
