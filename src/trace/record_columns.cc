#include "trace/record_columns.h"

#include <span>
#include <tuple>
#include <type_traits>

#include "trace/log_io.h"
#include "trace/trace_store.h"
#include "util/error.h"

namespace mcloud {

// VisitColumn must name every column: one left out of its switch would be
// skipped by reserve, resize, the gather and the generator's column
// sizing.
static_assert(sizeof(RecordColumns) ==
              RecordColumns::kColumnCount * sizeof(std::vector<std::uint8_t>));

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

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
// An FNV-1a step on a zero byte, (h ^ 0) * P, is a bare multiply, so a run
// of k zero bytes is one multiply by P^k (mod 2^64).
constexpr std::uint64_t kFnvPrime4 =
    kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;
constexpr std::uint64_t kFnvPrime8 = kFnvPrime4 * kFnvPrime4;

/// FNV-1a over the 8 little-endian bytes of `v`. When the top four bytes
/// are zero — every generated field but the PC device ids — they fold as
/// one multiply instead of four steps; the hash is unchanged.
inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 4; ++b) h = (h ^ ((v >> (8 * b)) & 0xff)) * kFnvPrime;
  if ((v >> 32) == 0) return h * kFnvPrime4;
  for (int b = 4; b < 8; ++b) h = (h ^ ((v >> (8 * b)) & 0xff)) * kFnvPrime;
  return h;
}

/// Fnv of a one-byte field widened to 64 bits: one byte step, then the
/// seven zero bytes as one multiply.
inline std::uint64_t FnvU8(std::uint64_t h, std::uint8_t v) {
  return (h ^ v) * kFnvPrime8;
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
  h = FnvU8(h, dev);
  h = Fnv(h, dev_id);
  h = Fnv(h, user);
  h = FnvU8(h, req);
  h = FnvU8(h, dir);
  h = Fnv(h, vol);
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(proc)));
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(srv)));
  h = Fnv(h, static_cast<std::uint64_t>(detail::ToMicros(rtt)));
  h = FnvU8(h, prox);
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
