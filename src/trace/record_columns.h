// The Table 1 columns, declared once (structure-of-arrays).
//
// Every record of the paper's HTTP request log has the same eleven fields,
// and RecordColumns is the one declaration of them: the generator emits
// into it, TraceStore holds one (with its user column resolved to dense
// indices), TraceStore::Builder stages one, the v2 writer and reader walk
// one column at a time through VisitColumn, and a spill slice is one. The
// column index c of VisitColumn is the ColumnMask bit 1 << c and the v2
// file's column order (trace/trace_store.h, trace/log_io.cc).
//
// The generator fast path emits records straight into these columns instead
// of building `std::vector<LogRecord>` and transposing later: an emitted
// record costs ~59 bytes of sequential column stores instead of a 112-byte
// AoS struct copy, the time-order sort runs as a radix permutation over
// 16-byte pairs plus one gather per column, and the sorted buffer moves
// whole into TraceStore::Builder (resident path) or goes to the partitioned
// run writer (spill path) without another transpose. `user_ids` holds the
// *original* 64-bit ids. The generator resolves them to dense ids itself,
// for its resident store and for each spill slice it hands to a
// SliceVisitor; every other path remaps where it always did (TraceStore
// build / per-run v2 writer).
//
// The resilience tags (outcome, attempt) are runtime-only and not staged,
// exactly as in the on-disk formats (trace/log_io.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include "trace/log_record.h"
#include "util/parallel.h"
#include "util/radix_sort.h"

namespace mcloud {

struct RecordColumns;

/// `v` to `n` elements that the caller is about to overwrite. Past its
/// capacity, `v` frees its storage before it takes exactly `n` elements: no
/// geometric growth, no copy of stale values, never two blocks at once.
/// Within its capacity it keeps the capacity.
template <typename T>
void ResizeForOverwrite(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v = std::vector<T>();
  v.resize(n);
}

/// Reusable scratch for RecordColumns::SortByTimeOrder: the radix sorter
/// plus one gather target per column element type, picked by type. Keep one
/// per worker: the targets and the permutation keep their capacity across
/// sorts.
struct RecordColumnsScratch {
  StableRadixSorter sorter;
  std::tuple<std::vector<std::int64_t>, std::vector<std::uint64_t>,
             std::vector<std::uint8_t>, std::vector<double>>
      targets;
};

struct RecordColumns {
  std::vector<std::int64_t> timestamps;
  std::vector<std::uint8_t> device_types;
  std::vector<std::uint64_t> device_ids;
  std::vector<std::uint64_t> user_ids;
  std::vector<std::uint8_t> request_types;
  std::vector<std::uint8_t> directions;
  std::vector<std::uint64_t> data_volumes;
  std::vector<double> processing_times;
  std::vector<double> server_times;
  std::vector<double> avg_rtts;
  std::vector<std::uint8_t> proxied;

  [[nodiscard]] std::size_t size() const { return timestamps.size(); }
  [[nodiscard]] bool empty() const { return timestamps.empty(); }

  void reserve(std::size_t n);
  /// Every column to `n` rows (new rows zero). Past the capacity, the
  /// columns grow geometrically, as push_back would.
  void resize(std::size_t n);
  /// Capacity of the backing storage (rows the buffer can hold without
  /// reallocating) — the pooled-buffer growth diagnostic.
  [[nodiscard]] std::size_t capacity() const { return timestamps.capacity(); }

  /// Append one record (AoS compatibility shim; the emitter writes columns
  /// directly).
  void Append(const LogRecord& r);
  /// Materialize row i as a LogRecord (resilience tags at defaults).
  [[nodiscard]] LogRecord RecordAt(std::size_t i) const;
  /// Materialize rows in permutation order — RecordAt(perm[0]),
  /// RecordAt(perm[1]), ... The resident Generate path fuses its final
  /// time-order sort with the AoS transpose this way, skipping the
  /// 11-column gather entirely.
  [[nodiscard]] std::vector<LogRecord> ToRecords(
      std::span<const std::uint32_t> perm) const;

  /// Stable sort by LogRecordTimeOrder — (timestamp, user_id, device_id),
  /// ties in current order — via a radix permutation on `pool` and
  /// Permute. Identical order to std::stable_sort with LogRecordTimeOrder,
  /// at every pool size.
  void SortByTimeOrder(RecordColumnsScratch& scratch, ThreadPool& pool);
  /// The stable LogRecordTimeOrder permutation without rearranging the
  /// columns. The span is owned by `scratch` and valid until its next sort.
  [[nodiscard]] std::span<const std::uint32_t> TimeOrderPerm(
      RecordColumnsScratch& scratch, ThreadPool& pool) const;
  /// Rearrange the rows so that row j is the former row perm[j]: one gather
  /// per column, one column at a time, each over row shards of `pool`,
  /// into `scratch`'s targets. perm must be a permutation of [0, size()).
  void Permute(std::span<const std::uint32_t> perm,
               RecordColumnsScratch& scratch, ThreadPool& pool);

  static constexpr std::size_t kColumnCount = 11;
  /// fn(&RecordColumns::<column c>) for c in [0, kColumnCount), in
  /// declaration order: the dispatch of one pool task per column, and of
  /// the v2 writer and reader per column.
  template <typename Fn>
  static constexpr void VisitColumn(std::size_t c, Fn&& fn) {
    switch (c) {
      case 0: return fn(&RecordColumns::timestamps);
      case 1: return fn(&RecordColumns::device_types);
      case 2: return fn(&RecordColumns::device_ids);
      case 3: return fn(&RecordColumns::user_ids);
      case 4: return fn(&RecordColumns::request_types);
      case 5: return fn(&RecordColumns::directions);
      case 6: return fn(&RecordColumns::data_volumes);
      case 7: return fn(&RecordColumns::processing_times);
      case 8: return fn(&RecordColumns::server_times);
      case 9: return fn(&RecordColumns::avg_rtts);
      case 10: return fn(&RecordColumns::proxied);
    }
  }
  /// VisitColumn for every column, in order.
  template <typename Fn>
  static void ForEachColumn(Fn&& fn) {
    for (std::size_t c = 0; c < kColumnCount; ++c) VisitColumn(c, fn);
  }
};

/// One sealed spill slice, as the spill producer hands it over: records
/// sorted by the record time order that hold the complete history of a
/// contiguous range of users, above the previous slice's, with those users
/// already resolved.
struct SealedSlice {
  const RecordColumns& records;
  /// The ascending original ids of the slice's users (those with rows).
  std::span<const std::uint64_t> user_ids;
  /// Each row's index into `user_ids`.
  std::span<const std::uint32_t> users;
};

/// Receives each sealed slice together with the producer's pool, which is
/// idle until the visitor returns.
using SliceVisitor = std::function<void(const SealedSlice&, ThreadPool&)>;

/// Canonical FNV-1a fingerprint of a trace's Table 1 content, independent
/// of representation (times folded as the on-disk microsecond integers).
/// The two overloads agree for the same record sequence.
[[nodiscard]] std::uint64_t TraceFingerprint(
    std::span<const LogRecord> records);
class TraceStore;
[[nodiscard]] std::uint64_t TraceFingerprint(const TraceStore& store);

}  // namespace mcloud
