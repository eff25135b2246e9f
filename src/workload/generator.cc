#include "workload/generator.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
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

/// What every generation loop shares: the population, the root of the
/// per-user session streams, and the models that turn one user into session
/// plans and records.
///
/// Each user's sessions and records are drawn from
/// Rng::ForStream(session_root, user_id) — a pure function of the seed and
/// the user id — so neither the chunk a user lands on, nor the thread that
/// runs it, nor how many times it is planned can perturb any stream.
class Producer {
 public:
  Producer(const WorkloadConfig& config, ThreadPool& pool)
      : diurnal_(config.model.hour_weights),
        session_model_(
            SessionModelConfig{config.trace_start, config.population.days,
                               config.model},
            diurnal_) {
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
  [[nodiscard]] std::uint64_t user_id(std::size_t i) const {
    return users_[i].user_id;
  }
  [[nodiscard]] std::vector<UserProfile> TakeUsers() {
    return std::move(users_);
  }

  /// Plans users[i] into `scratch`. Returns the user's stream, positioned
  /// at its first emission draw.
  Rng Plan(std::size_t i, PlanScratch& scratch) const {
    Rng rng = Rng::ForStream(session_root_, users_[i].user_id);
    session_model_.PlanUserInto(users_[i], rng, scratch);
    return rng;
  }

  /// Records the sessions planned into `scratch` emit.
  [[nodiscard]] static std::size_t PlannedRows(const PlanScratch& scratch) {
    std::size_t rows = 0;
    for (const SessionPlan& s : scratch.sessions())
      rows += FastLogEmitter::SessionRows(s);
    return rows;
  }

  /// Writes the records of the sessions planned into `scratch` from `row`
  /// on, drawing from `rng` (Plan's return). Returns the row after them.
  std::size_t Emit(const PlanScratch& scratch, Rng& rng, RecordColumns& out,
                   std::size_t row, EmitScratch& emit) const {
    for (const SessionPlan& s : scratch.sessions())
      row = emitter_.EmitSessionColumnar(s, rng, out, row, emit);
    return row;
  }

 private:
  DiurnalPattern diurnal_;
  SessionModel session_model_;  ///< holds a reference to diurnal_
  FastLogEmitter emitter_;
  std::vector<UserProfile> users_;
  std::uint64_t session_root_ = 0;
};

enum class Mode { kPlans, kRecords };

/// One contiguous user chunk's output plus the pooled scratch that made
/// it. The producer reuses its slots window after window, so steady-state
/// chunk processing allocates nothing.
struct Chunk {
  RecordColumns records;              ///< kRecords: emitted, user order
  std::vector<std::uint64_t> users;   ///< kRecords: ids of users with rows
  std::vector<SessionPlan> sessions;  ///< kPlans: user order
  PlanScratch plan;
  EmitScratch emit;
  double cpu_s = 0;  ///< thread CPU of every fill of this slot
  std::size_t growths = 0;
};

/// Receives one finished window of chunks, in user order.
using WindowSink = std::function<void(std::span<Chunk>)>;

/// The windowed loop of plans mode and the spill path. Plans users in
/// contiguous chunks of `users_per_chunk` (0: one chunk per pool thread) —
/// and in kRecords mode emits their records — one window of
/// `chunks_per_thread` chunks per pool thread at a time, on the caller's
/// `pool`. Each finished window goes to `sink` in user order; the sink may
/// take what it wants from the chunks, whose slots are then reused for the
/// next window, and may run its own work on the pool, which is idle between
/// windows. Chunks cover contiguous ascending user ranges, so the
/// concatenation of every window's chunks is the user-ordered emission at
/// every thread count. Returns the population.
std::vector<UserProfile> Produce(const WorkloadConfig& config,
                                 ThreadPool& pool, Mode mode,
                                 std::size_t users_per_chunk,
                                 std::size_t chunks_per_thread,
                                 GenTimings* timings, const WindowSink& sink) {
  Producer producer(config, pool);
  const std::size_t n_users = producer.users();
  const std::size_t threads = static_cast<std::size_t>(pool.threads());
  if (users_per_chunk == 0)
    users_per_chunk =
        std::max<std::size_t>(1, (n_users + threads - 1) / threads);
  const std::size_t n_chunks =
      (n_users + users_per_chunk - 1) / users_per_chunk;
  const std::size_t window = chunks_per_thread * threads;
  std::vector<Chunk> slots(std::min(window, n_chunks));
  const bool want_timing = timings != nullptr;

  const auto fill = [&](std::size_t chunk, Chunk& c) {
    const double c0 = want_timing ? ThreadCpuSeconds() : 0;
    c.records.clear();
    c.users.clear();
    c.sessions.clear();
    const std::size_t begin = chunk * users_per_chunk;
    const std::size_t end = std::min(begin + users_per_chunk, n_users);
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = producer.Plan(i, c.plan);
      if (mode == Mode::kPlans) {
        // Move the plans out of the pool (slots re-grow their ops storage
        // on the next user).
        for (std::size_t k = 0; k < c.plan.used; ++k)
          c.sessions.push_back(std::move(c.plan.pool[k]));
        continue;
      }
      // Size the slot for this user's rows. It keeps its capacity from
      // window to window, so once warm it never reallocates.
      const std::size_t row = c.records.size();
      const std::size_t rows = Producer::PlannedRows(c.plan);
      if (rows == 0) continue;  // no session: nothing to emit
      const std::size_t cap = c.records.capacity();
      c.records.resize(row + rows);
      if (c.records.capacity() != cap) ++c.growths;
      c.users.push_back(producer.user_id(i));
      producer.Emit(c.plan, rng, c.records, row, c.emit);
    }
    if (want_timing) c.cpu_s += ThreadCpuSeconds() - c0;
  };

  for (std::size_t next = 0; next < n_chunks; next += window) {
    const std::size_t batch = std::min(window, n_chunks - next);
    ParallelFor(pool, batch,
                [&](std::size_t i) { fill(next + i, slots[i]); });
    sink(std::span<Chunk>(slots.data(), batch));
  }
  if (timings) {
    for (const Chunk& c : slots) {
      // Only the spill path is timed here. It plans and emits user by user,
      // so a chunk's CPU is planning and emission together.
      timings->emit_s += c.cpu_s;
      timings->plan_slot_allocs += c.plan.slot_growth;
      timings->record_buffer_growths += c.growths;
    }
  }
  return producer.TakeUsers();
}

/// Users per chunk of the resident passes: small enough that the
/// 1,000-user live-replay input still makes several chunks per thread of a
/// 4-thread pool, large enough that claiming a chunk costs nothing.
constexpr std::size_t kResidentChunkUsers = 128;

/// Runs fn(chunk, worker) for every chunk in [0, n_chunks) on `pool`: one
/// task per worker slot in [0, workers), each claiming the next unclaimed
/// chunk until none is left, so a chunk of heavy users delays only the
/// task that drew it. No two running tasks share a worker slot.
template <typename Fn>
void ForEachChunk(ThreadPool& pool, std::size_t n_chunks, std::size_t workers,
                  Fn&& fn) {
  std::atomic<std::size_t> next{0};
  pool.Run(workers, [&](std::size_t worker) {
    for (std::size_t c; (c = next.fetch_add(1)) < n_chunks;) fn(c, worker);
  });
}

struct Emitted {
  std::vector<UserProfile> users;
  RecordColumns records;  ///< user order, unsorted
  /// Records of each user, in population order.
  std::vector<std::size_t> user_rows;
};

/// Resident record mode, in three steps, each on `pool`:
///   1. a count pass plans every user once and counts the rows its
///      sessions emit;
///   2. the counts become chunk offsets, and every column is sized to the
///      total at once, one column per task;
///   3. an emit pass plans each user again — the same stream gives the
///      same plans — and writes its records straight into its chunk's row
///      range.
/// Chunks of kResidentChunkUsers are claimed dynamically in both passes.
/// No column ever grows or is copied, and the result is the user-ordered
/// emission whatever the pool.
Emitted EmitResident(const WorkloadConfig& config, ThreadPool& pool,
                     GenTimings* timings) {
  Producer producer(config, pool);
  const std::size_t n_users = producer.users();
  const std::size_t n_chunks =
      (n_users + kResidentChunkUsers - 1) / kResidentChunkUsers;
  const auto chunk_end = [n_users](std::size_t chunk) {
    return std::min((chunk + 1) * kResidentChunkUsers, n_users);
  };
  struct Worker {
    PlanScratch plan;
    EmitScratch emit;
    double plan_s = 0;
    double emit_s = 0;
  };
  std::vector<Worker> workers(
      std::min(static_cast<std::size_t>(pool.threads()), n_chunks));

  Emitted out;
  out.user_rows.resize(n_users);
  ForEachChunk(pool, n_chunks, workers.size(),
               [&](std::size_t chunk, std::size_t w) {
                 Worker& k = workers[w];
                 const double c0 = ThreadCpuSeconds();
                 for (std::size_t i = chunk * kResidentChunkUsers;
                      i < chunk_end(chunk); ++i) {
                   producer.Plan(i, k.plan);
                   out.user_rows[i] = Producer::PlannedRows(k.plan);
                 }
                 k.plan_s += ThreadCpuSeconds() - c0;
               });

  std::vector<std::size_t> offsets(n_chunks + 1, 0);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    std::size_t rows = 0;
    for (std::size_t i = c * kResidentChunkUsers; i < chunk_end(c); ++i)
      rows += out.user_rows[i];
    offsets[c + 1] = offsets[c] + rows;
  }
  std::vector<double> size_s(RecordColumns::kColumnCount, 0);
  pool.Run(RecordColumns::kColumnCount, [&](std::size_t c) {
    const double c0 = ThreadCpuSeconds();
    RecordColumns::VisitColumn(c, [&](auto column) {
      (out.records.*column).resize(offsets.back());
    });
    size_s[c] = ThreadCpuSeconds() - c0;
  });

  ForEachChunk(pool, n_chunks, workers.size(),
               [&](std::size_t chunk, std::size_t w) {
                 Worker& k = workers[w];
                 const double c0 = ThreadCpuSeconds();
                 std::size_t row = offsets[chunk];
                 for (std::size_t i = chunk * kResidentChunkUsers;
                      i < chunk_end(chunk); ++i) {
                   Rng rng = producer.Plan(i, k.plan);
                   row = producer.Emit(k.plan, rng, out.records, row, k.emit);
                 }
                 MCLOUD_CHECK(row == offsets[chunk + 1],
                              "a chunk emitted other than its counted rows");
                 k.emit_s += ThreadCpuSeconds() - c0;
               });

  if (timings) {
    for (const Worker& k : workers) {
      timings->plan_s += k.plan_s;
      timings->emit_s += k.emit_s;
      timings->plan_slot_allocs += k.plan.slot_growth;
    }
    for (const double s : size_s) timings->emit_s += s;
  }
  out.users = producer.TakeUsers();
  return out;
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
  Emitted e = EmitResident(config_, pool, timings);
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
  Emitted e = EmitResident(config_, pool, timings);
  const auto s0 = Clock::now();
  RecordColumns& cols = e.records;
  {
    // Scoped: the sort buffers are gone before the store is built. One
    // sort, so its pair buffers go before the gather grows its targets.
    RecordColumnsScratch sort_scratch;
    const std::span<const std::uint32_t> perm =
        cols.TimeOrderPerm(sort_scratch, pool);
    sort_scratch.sorter.ReleasePairs();
    cols.Permute(perm, sort_scratch, pool);
  }

  // The sorted columns move straight into the store builder — no
  // record-by-record append, no AoS copy — with the users already
  // resolved, so Build only validates them.
  TraceStore::Builder b;
  b.day_base = config_.trace_start;
  for (std::size_t i = 0; i < e.users.size(); ++i)
    if (e.user_rows[i] != 0) b.user_ids.push_back(e.users[i].user_id);
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
  Workload w;
  ThreadPool pool(config_.threads);
  w.users = Produce(config_, pool, Mode::kPlans, 0, 1, nullptr,
                    [&](std::span<Chunk> chunks) {
                      std::size_t n = w.sessions.size();
                      for (const Chunk& c : chunks) n += c.sessions.size();
                      w.sessions.reserve(n);
                      for (Chunk& c : chunks) {
                        w.sessions.insert(
                            w.sessions.end(),
                            std::make_move_iterator(c.sessions.begin()),
                            std::make_move_iterator(c.sessions.end()));
                        c.sessions = std::vector<SessionPlan>();
                      }
                    });
  SortSessionsByStart(w.sessions);
  return w;
}

// Bounded-memory consumer of the same producer: chunks of
// `spill.users_per_chunk` users, two per pool thread per window, appended
// in user order to a buffer that is sealed as a stably-sorted slice when
// the next chunk would overflow it. The buffer therefore always holds a
// contiguous user range, so every slice is a stably-sorted contiguous
// partition of the user-ordered emission — one group of the partitioned
// reader. The pool is idle between windows, so the sink appends, sorts,
// writes and visits each slice on it. Chunk boundaries and flush points
// depend only on the config, never on the thread count.
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

  // Still accounted in AoS LogRecord bytes: flush boundaries are part of
  // the deterministic spill layout and must not shift with the emitter's
  // in-memory representation.
  const std::size_t budget_records = std::max<std::size_t>(
      spill.max_buffer_bytes / sizeof(LogRecord), std::size_t{64} * 1024);

  SpillSummary sum;
  RecordColumns buffer;
  RecordColumnsScratch sort_scratch;
  std::vector<std::uint64_t> slice_users;  // the buffer's users with rows
  std::vector<std::uint32_t> dense;
  std::size_t buffer_growths = 0;
  double visit_s = 0;
  const auto flush = [&] {
    if (buffer.empty()) return;
    auto f0 = Clock::now();
    buffer.SortByTimeOrder(sort_scratch, pool);
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
    // Pooled: keep the capacity for the next fill cycle.
    buffer.clear();
    slice_users.clear();
  };

  sum.users =
      Produce(config_, pool, Mode::kRecords,
              std::max<std::size_t>(spill.users_per_chunk, 1), 2, timings,
              [&](std::span<Chunk> chunks) {
                for (const Chunk& c : chunks) {
                  // Flush *before* appending, so the buffer never
                  // reallocates past the budget mid-append (the doubling
                  // growth of push_back would briefly double the footprint
                  // otherwise).
                  if (!buffer.empty() &&
                      buffer.size() + c.records.size() > budget_records)
                    flush();
                  sum.records += c.records.size();
                  const std::size_t cap = buffer.capacity();
                  // Copy so the slot keeps its capacity for the next
                  // window; one column per task, as the pool is idle here.
                  buffer.AppendCopy(c.records, &pool);
                  if (buffer.capacity() != cap) ++buffer_growths;
                  slice_users.insert(slice_users.end(), c.users.begin(),
                                     c.users.end());
                }
              })
          .size();
  flush();
  const auto t0 = Clock::now();
  if (writer) {
    writer->Finish();
    sum.run_files = writer->run_files();
  }
  if (timings) {
    timings->write_s += Since(t0);
    timings->record_buffer_growths += buffer_growths;
    timings->total_s += Since(t_total) - visit_s;
  }
  return sum;
}

}  // namespace mcloud::workload
