#include "workload/generator.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "trace/partitioned_trace.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "workload/calibration.h"
#include "workload/diurnal.h"
#include "workload/log_emitter.h"
#include "workload/session_model.h"

namespace mcloud::workload {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sort sessions by (start, user_id), ties in current order — the session
/// order of the final workload. A stable radix permutation over the two
/// keys plus one move-gather: identical order to std::stable_sort with the
/// old SessionStartOrder comparator.
void SortSessionsByStart(std::vector<SessionPlan>& sessions) {
  const std::size_t n = sessions.size();
  if (n < 2) return;
  std::vector<std::int64_t> starts(n);
  std::vector<std::uint64_t> users(n);
  for (std::size_t i = 0; i < n; ++i) {
    starts[i] = sessions[i].start;
    users[i] = sessions[i].user_id;
  }
  StableRadixSorter sorter;
  const RadixKey keys[2] = {RadixKey::I64(starts), RadixKey::U64(users)};
  const std::span<const std::uint32_t> perm = sorter.Sort(n, keys);
  std::vector<SessionPlan> sorted;
  sorted.reserve(n);
  for (std::size_t j = 0; j < n; ++j)
    sorted.push_back(std::move(sessions[perm[j]]));
  sessions = std::move(sorted);
}

/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID). Time
/// the thread spends preempted does not count, as it would on a wall clock.
double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Users per chunk of every pass: small enough that the 1,000-user
/// live-replay input still makes several chunks per thread of a 4-thread
/// pool, large enough that claiming a chunk costs nothing.
constexpr std::size_t kChunkUsers = 128;

/// The one generation producer: the population, the root of the per-user
/// session streams, and the models that turn one user into session plans
/// and records.
///
/// Each user's sessions and records are drawn from
/// Rng::ForStream(session_root, user_id) — a pure function of the seed and
/// the user id — so neither the chunk a user lands on, nor the thread that
/// runs it, nor how many times it is planned can perturb any stream.
///
/// Every path runs the same passes on the caller's pool, each over chunks
/// of kChunkUsers users claimed dynamically, with one scratch per worker:
///   1. Count plans every user once and records where its rows start;
///   2. Emit writes a user range's records: it sizes the columns to the
///      range's rows once, one column per task, then plans each user again
///      — the same stream gives the same plans — and writes its records at
///      its own row.
/// No column grows during an emit pass and no record is copied: a range's
/// rows are its users' emission, in user order, at every thread count.
class Producer {
 public:
  Producer(const WorkloadConfig& config, ThreadPool& pool)
      : pool_(pool),
        diurnal_(config.model.hour_weights),
        session_model_(
            SessionModelConfig{config.trace_start, config.population.days,
                               config.model},
            diurnal_),
        workers_(static_cast<std::size_t>(pool.threads())) {
    Rng rng(config.seed);
    users_ = PopulationBuilder(config.population, config.model)
                 .Build(rng, &pool);
    // ResolveRows' flat user lookup relies on consecutive ids.
    for (std::size_t i = 0; i < users_.size(); ++i)
      MCLOUD_CHECK(users_[i].user_id == users_.front().user_id + i,
                   "population ids must be consecutive");
    // Root key of all per-user session streams. Drawn after the
    // population's root so the two stream families never collide.
    session_root_ = rng.NextU64();
  }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  [[nodiscard]] std::size_t users() const { return users_.size(); }
  [[nodiscard]] std::vector<UserProfile> TakeUsers() {
    return std::move(users_);
  }

  /// The count pass: plans every user once and records the rows its
  /// sessions emit.
  void Count() {
    first_row_.assign(users() + 1, 0);
    ForEachChunk(0, users(), &Worker::plan_s,
                 [&](std::size_t first, std::size_t last, Worker& k) {
                   for (std::size_t i = first; i < last; ++i) {
                     Plan(i, k.plan);
                     std::size_t rows = 0;
                     for (const SessionPlan& s : k.plan.sessions())
                       rows += FastLogEmitter::SessionRows(s);
                     first_row_[i + 1] = rows;
                   }
                 });
    std::partial_sum(first_row_.begin(), first_row_.end(),
                     first_row_.begin());
  }

  /// Records of users [begin, end) (after Count).
  [[nodiscard]] std::size_t Rows(std::size_t begin, std::size_t end) const {
    return first_row_[end] - first_row_[begin];
  }

  /// The emit pass over users [begin, end) (after Count): `out` holds
  /// exactly their records afterwards, in user order. A column that held
  /// more rows before keeps its capacity.
  void Emit(std::size_t begin, std::size_t end, RecordColumns& out) {
    const std::size_t rows = Rows(begin, end);
    pool_.Run(RecordColumns::kColumnCount, [&](std::size_t c) {
      const double c0 = ThreadCpuSeconds();
      RecordColumns::VisitColumn(
          c, [&](auto column) { ResizeForOverwrite(out.*column, rows); });
      size_s_[c] += ThreadCpuSeconds() - c0;
    });
    ForEachChunk(begin, end, &Worker::emit_s,
                 [&](std::size_t first, std::size_t last, Worker& k) {
                   std::size_t row = Rows(begin, first);
                   for (std::size_t i = first; i < last; ++i) {
                     Rng rng = Plan(i, k.plan);
                     for (const SessionPlan& s : k.plan.sessions())
                       row = emitter_.EmitSessionColumnar(s, rng, out, row,
                                                          k.emit);
                   }
                   MCLOUD_CHECK(row == Rows(begin, last),
                                "a chunk emitted other than its counted rows");
                 });
  }

  /// Appends the ids of the users in [begin, end) that have rows (after
  /// Count), ascending.
  void AppendUsersWithRows(std::size_t begin, std::size_t end,
                           std::vector<std::uint64_t>& ids) const {
    for (std::size_t i = begin; i < end; ++i)
      if (Rows(i, i + 1) != 0) ids.push_back(users_[i].user_id);
  }

  /// Every user's session plans, in user order: each chunk keeps its
  /// users' plans, and the chunks are joined in order.
  [[nodiscard]] std::vector<SessionPlan> Plans() {
    std::vector<std::vector<SessionPlan>> chunks(
        (users() + kChunkUsers - 1) / kChunkUsers);
    ForEachChunk(0, users(), &Worker::plan_s,
                 [&](std::size_t first, std::size_t last, Worker& k) {
                   auto& plans = chunks[first / kChunkUsers];
                   for (std::size_t i = first; i < last; ++i) {
                     Plan(i, k.plan);
                     // Move the plans out of the pool (its slots re-grow
                     // their ops storage on the next user).
                     for (std::size_t s = 0; s < k.plan.used; ++s)
                       plans.push_back(std::move(k.plan.pool[s]));
                   }
                 });
    std::size_t n = 0;
    for (const std::vector<SessionPlan>& c : chunks) n += c.size();
    std::vector<SessionPlan> out;
    out.reserve(n);
    for (std::vector<SessionPlan>& c : chunks) {
      out.insert(out.end(), std::make_move_iterator(c.begin()),
                 std::make_move_iterator(c.end()));
      c = std::vector<SessionPlan>();
    }
    return out;
  }

  /// Adds the passes' CPU seconds and the planning scratch's growth.
  void AddTimings(GenTimings& t) const {
    for (const Worker& k : workers_) {
      t.plan_s += k.plan_s;
      t.emit_s += k.emit_s;
      t.plan_slot_allocs += k.plan.slot_growth;
    }
    for (const double s : size_s_) t.emit_s += s;
  }

 private:
  struct Worker {
    PlanScratch plan;
    EmitScratch emit;
    double plan_s = 0;  ///< thread CPU of its count-pass tasks
    double emit_s = 0;  ///< thread CPU of its emit-pass tasks
  };

  /// Plans users_[i] into `scratch`. Returns the user's stream, positioned
  /// at its first emission draw.
  Rng Plan(std::size_t i, PlanScratch& scratch) const {
    Rng rng = Rng::ForStream(session_root_, users_[i].user_id);
    session_model_.PlanUserInto(users_[i], rng, scratch);
    return rng;
  }

  /// Runs fn(first, last, worker) for the chunks of kChunkUsers users that
  /// cut [begin, end): one pool task per worker, each claiming the next
  /// unclaimed chunk until none is left, so a chunk of heavy users delays
  /// only the task that drew it. Each task adds its thread CPU seconds to
  /// its worker's `cpu` clock.
  template <typename Fn>
  void ForEachChunk(std::size_t begin, std::size_t end, double Worker::*cpu,
                    Fn&& fn) {
    const std::size_t n_chunks = (end - begin + kChunkUsers - 1) / kChunkUsers;
    std::atomic<std::size_t> next{0};
    pool_.Run(std::min(workers_.size(), n_chunks), [&](std::size_t w) {
      const double c0 = ThreadCpuSeconds();
      for (std::size_t c; (c = next.fetch_add(1)) < n_chunks;) {
        const std::size_t first = begin + c * kChunkUsers;
        fn(first, std::min(first + kChunkUsers, end), workers_[w]);
      }
      workers_[w].*cpu += ThreadCpuSeconds() - c0;
    });
  }

  ThreadPool& pool_;
  DiurnalPattern diurnal_;
  SessionModel session_model_;  ///< holds a reference to diurnal_
  FastLogEmitter emitter_;
  std::vector<UserProfile> users_;
  std::uint64_t session_root_ = 0;
  std::vector<Worker> workers_;
  /// first_row_[i]: the records of the users before users_[i]; the last
  /// entry is the total (Count).
  std::vector<std::size_t> first_row_;
  /// Thread CPU of sizing each column, over every Emit.
  std::array<double, RecordColumns::kColumnCount> size_s_{};
};

/// Resident generation's emission: one range over every user.
struct Emitted {
  std::vector<UserProfile> users;
  RecordColumns records;  ///< user order, unsorted
  /// The ascending ids of the users with rows.
  std::vector<std::uint64_t> user_ids;
};

/// Counts and emits every user. The producer and its planning scratch are
/// gone before the caller sorts.
Emitted EmitAll(const WorkloadConfig& config, ThreadPool& pool,
                GenTimings* timings) {
  Producer producer(config, pool);
  producer.Count();
  Emitted e;
  producer.Emit(0, producer.users(), e.records);
  producer.AppendUsersWithRows(0, producer.users(), e.user_ids);
  if (timings) producer.AddTimings(*timings);
  e.users = producer.TakeUsers();
  return e;
}

/// Sorts `cols` by the record time order as the last sort on `scratch`:
/// the radix pairs go before the gather grows its targets, and the rest of
/// the scratch once the rows are in order.
void SortLast(RecordColumns& cols, RecordColumnsScratch& scratch,
              ThreadPool& pool) {
  const std::span<const std::uint32_t> perm =
      cols.TimeOrderPerm(scratch, pool);
  scratch.sorter.ReleasePairs();
  cols.Permute(perm, scratch, pool);
  scratch = RecordColumnsScratch();
}

/// Where GenerateToPartitions seals: the first user of each slice, then the
/// user count. A cut falls only at a multiple of `users_per_chunk`, before a
/// chunk whose records would take a non-empty slice past `budget_records`
/// (so one oversized chunk is a slice of its own), and a tail without
/// records joins the slice before it. The cuts are a pure function of the
/// config and never of the thread count.
std::vector<std::size_t> CutSlices(const Producer& producer,
                                   std::size_t users_per_chunk,
                                   std::size_t budget_records) {
  const std::size_t n = producer.users();
  std::vector<std::size_t> cuts{0};
  for (std::size_t first = 0, last; first < n; first = last) {
    last = first + std::min(users_per_chunk, n - first);
    const std::size_t held = producer.Rows(cuts.back(), first);
    if (held != 0 && held + producer.Rows(first, last) > budget_records)
      cuts.push_back(first);
  }
  if (cuts.size() > 1 && producer.Rows(cuts.back(), n) == 0) cuts.pop_back();
  cuts.push_back(n);
  return cuts;
}

/// Each row's dense id: its index into `table`, the ascending ids of the
/// users with rows, which the producer knows without a remap. Population
/// ids are consecutive, so a flat table over the ids from the first to the
/// last turns each row's id into its index with one lookup, over row
/// shards of `pool`.
void ResolveRows(std::span<const std::uint64_t> table,
                 std::span<const std::uint64_t> row_users, ThreadPool& pool,
                 std::vector<std::uint32_t>& dense) {
  const std::uint64_t first = table.empty() ? 0 : table.front();
  std::vector<std::uint32_t> dense_of(
      table.empty() ? 0 : table.back() - first + 1);
  for (std::size_t k = 0; k < table.size(); ++k)
    dense_of[table[k] - first] = static_cast<std::uint32_t>(k);
  dense.resize(row_users.size());
  ParallelForShards(pool, row_users.size(),
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t j = begin; j < end; ++j)
                        dense[j] = dense_of[row_users[j] - first];
                    });
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config)
    : config_(config) {}

Workload WorkloadGenerator::Generate(GenTimings* timings) const {
  const auto t0 = Clock::now();
  ThreadPool pool(config_.threads);
  Emitted e = EmitAll(config_, pool, timings);
  // Fuse the time-order sort with the AoS transpose: gather straight from
  // the unsorted columns through the stable permutation. Identical bytes to
  // sorting the columns first and transposing row by row, one full
  // materialization pass cheaper. One sort, so its pair buffers go before
  // the records are allocated.
  const auto s0 = Clock::now();
  RecordColumnsScratch sort_scratch;
  const std::span<const std::uint32_t> perm =
      e.records.TimeOrderPerm(sort_scratch, pool);
  sort_scratch.sorter.ReleasePairs();
  Workload w;
  w.users = std::move(e.users);
  w.trace = e.records.ToRecords(perm);
  if (timings) {
    timings->sort_s += Since(s0);
    timings->total_s += Since(t0);
  }
  return w;
}

ColumnarWorkload WorkloadGenerator::GenerateColumnar(
    GenTimings* timings) const {
  const auto t0 = Clock::now();
  ThreadPool pool(config_.threads);
  Emitted e = EmitAll(config_, pool, timings);
  const auto s0 = Clock::now();
  RecordColumns& cols = e.records;
  RecordColumnsScratch sort_scratch;
  SortLast(cols, sort_scratch, pool);

  // The sorted columns move straight into the store builder — no
  // record-by-record append, no AoS copy — with the users already
  // resolved, so Build only validates them.
  TraceStore::Builder b;
  b.day_base = config_.trace_start;
  b.user_ids = std::move(e.user_ids);
  ResolveRows(b.user_ids, cols.user_ids, pool, b.dense_users);
  cols.user_ids = std::vector<std::uint64_t>();
  if (timings) timings->sort_s += Since(s0);
  b.timestamps = std::move(cols.timestamps);
  b.device_types = std::move(cols.device_types);
  b.device_ids = std::move(cols.device_ids);
  b.request_types = std::move(cols.request_types);
  b.directions = std::move(cols.directions);
  b.data_volumes = std::move(cols.data_volumes);
  b.processing_times = std::move(cols.processing_times);
  b.server_times = std::move(cols.server_times);
  b.avg_rtts = std::move(cols.avg_rtts);
  b.proxied = std::move(cols.proxied);

  ColumnarWorkload out;
  out.users = std::move(e.users);
  out.trace = std::move(b).Build(&pool);
  if (timings) timings->total_s += Since(t0);
  return out;
}

Workload WorkloadGenerator::GeneratePlansOnly() const {
  ThreadPool pool(config_.threads);
  Producer producer(config_, pool);
  Workload w;
  w.sessions = producer.Plans();
  SortSessionsByStart(w.sessions);
  w.users = producer.TakeUsers();
  return w;
}

// Bounded-memory generation from the same producer: one count pass, then
// the slices cut from the counts (CutSlices), each emitted in place into
// one buffer that keeps its capacity, sorted stably, written and visited.
// Every slice is a stably-sorted contiguous partition of the user-ordered
// emission — one group of the partitioned reader — and its flush point
// depends only on the config, never on the thread count.
SpillSummary WorkloadGenerator::GenerateToPartitions(
    const SpillConfig& spill, GenTimings* timings) const {
  return GenerateToPartitions(spill, SliceVisitor{}, timings);
}

SpillSummary WorkloadGenerator::GenerateToPartitions(
    const SpillConfig& spill, const SliceVisitor& visit,
    GenTimings* timings) const {
  const auto t_total = Clock::now();
  ThreadPool pool(config_.threads);
  std::optional<PartitionedTraceWriter> writer;
  if (!spill.dir.empty()) writer.emplace(spill.dir, config_.trace_start);
  // Released, with its planning scratch, once the last slice is emitted:
  // the last sort and visit run without it, as resident generation's do.
  std::optional<Producer> producer(std::in_place, config_, pool);
  producer->Count();
  const auto release_producer = [&] {
    if (timings) producer->AddTimings(*timings);
    producer.reset();
  };

  // Still accounted in AoS LogRecord bytes: flush boundaries are part of
  // the deterministic spill layout and must not shift with the emitter's
  // in-memory representation.
  const std::vector<std::size_t> cuts = CutSlices(
      *producer, std::max<std::size_t>(spill.users_per_chunk, 1),
      std::max<std::size_t>(spill.max_buffer_bytes / sizeof(LogRecord),
                            std::size_t{64} * 1024));

  SpillSummary sum;
  sum.users = producer->users();
  sum.records = producer->Rows(0, sum.users);
  RecordColumns buffer;
  RecordColumnsScratch sort_scratch;
  std::vector<std::uint64_t> slice_users;  // the buffer's users with rows
  std::vector<std::uint32_t> dense;
  std::size_t buffer_growths = 0;
  double visit_s = 0;
  for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
    const std::size_t rows = producer->Rows(cuts[s], cuts[s + 1]);
    if (rows == 0) continue;  // a population without records
    if (buffer.capacity() != 0 && rows > buffer.capacity()) ++buffer_growths;
    producer->Emit(cuts[s], cuts[s + 1], buffer);
    if (visit) {
      slice_users.clear();
      producer->AppendUsersWithRows(cuts[s], cuts[s + 1], slice_users);
    }
    const bool last = s + 2 == cuts.size();
    if (last) release_producer();
    auto f0 = Clock::now();
    if (last) {
      SortLast(buffer, sort_scratch, pool);
    } else {
      buffer.SortByTimeOrder(sort_scratch, pool);
    }
    if (visit) ResolveRows(slice_users, buffer.user_ids, pool, dense);
    if (timings) {
      const auto f1 = Clock::now();
      timings->sort_s += std::chrono::duration<double>(f1 - f0).count();
      f0 = f1;
    }
    if (writer) {
      writer->WriteSortedSlice(buffer, &pool);
      if (timings) timings->write_s += Since(f0);
    }
    ++sum.spills;
    if (visit) {
      const auto v0 = Clock::now();
      visit(SealedSlice{buffer, slice_users, dense}, pool);
      visit_s += Since(v0);
    }
  }
  const auto t0 = Clock::now();
  if (writer) {
    writer->Finish();
    sum.run_files = writer->run_files();
  }
  if (producer) release_producer();  // no slice had records
  if (timings) {
    timings->write_s += Since(t0);
    timings->record_buffer_growths += buffer_growths;
    timings->total_s += Since(t_total) - visit_s;
  }
  return sum;
}

}  // namespace mcloud::workload
