#include "workload/generator.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "trace/partitioned_trace.h"
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

enum class Mode { kPlans, kRecords };

/// One contiguous user chunk's output plus the pooled scratch that made
/// it. The producer reuses its slots window after window, so steady-state
/// chunk processing allocates nothing.
struct Chunk {
  RecordColumns records;              ///< kRecords: emitted, user order
  std::vector<SessionPlan> sessions;  ///< kPlans: user order
  PlanScratch plan;
  EmitScratch emit;
  double plan_s = 0;
  double emit_s = 0;
  std::size_t growths = 0;
};

/// Receives one finished window of chunks, in user order.
using WindowSink = std::function<void(std::span<Chunk>)>;

/// The one loop that plans and emits users. Builds the population, draws
/// the session root, then plans users in contiguous chunks of
/// `users_per_chunk` (0: one chunk per pool thread) — and in kRecords mode
/// emits their records — one window of `chunks_per_thread` chunks per pool
/// thread at a time, on the caller's `pool`. Each finished window goes to
/// `sink` in user order; the sink may take what it wants from the chunks,
/// whose slots are then reused for the next window, and may run its own
/// work on the pool, which is idle between windows. Returns the population.
///
/// Each user's sessions and records are drawn from
/// Rng::ForStream(session_root, user_id) — a pure function of the seed and
/// the user id — so neither the chunk a user lands on nor the thread that
/// runs it can perturb any stream. Chunks cover contiguous ascending user
/// ranges, so the concatenation of every window's chunks is the
/// user-ordered emission at every thread count.
std::vector<UserProfile> Produce(const WorkloadConfig& config,
                                 ThreadPool& pool, Mode mode,
                                 std::size_t users_per_chunk,
                                 std::size_t chunks_per_thread,
                                 GenTimings* timings, const WindowSink& sink) {
  Rng rng(config.seed);

  const auto t0 = Clock::now();
  PopulationBuilder population(config.population, config.model);
  std::vector<UserProfile> users = population.Build(rng, &pool);
  if (timings) timings->plan_s += Since(t0);
  // Root key of all per-user session streams. Drawn after the population's
  // root so the two stream families never collide.
  const std::uint64_t session_root = rng.NextU64();

  const DiurnalPattern diurnal(config.model.hour_weights);
  SessionModelConfig smc;
  smc.trace_start = config.trace_start;
  smc.days = config.population.days;
  smc.model = config.model;
  const SessionModel session_model(smc, diurnal);
  const FastLogEmitter emitter;

  const std::size_t threads = static_cast<std::size_t>(pool.threads());
  if (users_per_chunk == 0)
    users_per_chunk =
        std::max<std::size_t>(1, (users.size() + threads - 1) / threads);
  const std::size_t n_chunks =
      (users.size() + users_per_chunk - 1) / users_per_chunk;
  const std::size_t window = chunks_per_thread * threads;
  std::vector<Chunk> slots(std::min(window, n_chunks));
  const bool want_timing = timings != nullptr;

  const auto fill = [&](std::size_t chunk, Chunk& c) {
    c.records.clear();
    c.sessions.clear();
    const std::size_t begin = chunk * users_per_chunk;
    const std::size_t end = std::min(begin + users_per_chunk, users.size());
    for (std::size_t i = begin; i < end; ++i) {
      const UserProfile& user = users[i];
      Rng user_rng = Rng::ForStream(session_root, user.user_id);
      Clock::time_point u0;
      if (want_timing) u0 = Clock::now();
      session_model.PlanUserInto(user, user_rng, c.plan);
      if (want_timing) {
        const auto u1 = Clock::now();
        c.plan_s += std::chrono::duration<double>(u1 - u0).count();
        u0 = u1;
      }
      if (mode == Mode::kPlans) {
        // Move the plans out of the pool (slots re-grow their ops storage
        // on the next user).
        for (std::size_t k = 0; k < c.plan.used; ++k)
          c.sessions.push_back(std::move(c.plan.pool[k]));
        continue;
      }
      const std::size_t cap = c.records.capacity();
      for (const SessionPlan& s : c.plan.sessions())
        emitter.EmitSessionColumnar(s, user_rng, c.records, c.emit);
      if (c.records.capacity() != cap) ++c.growths;
      if (want_timing) c.emit_s += Since(u0);
    }
  };

  for (std::size_t next = 0; next < n_chunks; next += window) {
    const std::size_t batch = std::min(window, n_chunks - next);
    ParallelFor(pool, batch,
                [&](std::size_t i) { fill(next + i, slots[i]); });
    sink(std::span<Chunk>(slots.data(), batch));
  }
  if (timings) {
    for (const Chunk& c : slots) {
      timings->plan_s += c.plan_s;
      timings->emit_s += c.emit_s;
      timings->plan_slot_allocs += c.plan.slot_growth;
      timings->record_buffer_growths += c.growths;
    }
  }
  return users;
}

struct Emitted {
  std::vector<UserProfile> users;
  RecordColumns records;  ///< user order, unsorted
};

/// Resident record mode: one chunk per pool thread, one window, every
/// chunk's records appended to one buffer in user order, one pool task per
/// column. Each chunk column is freed once copied, so the chunk slots are
/// gone by the time the caller sorts.
Emitted EmitResident(const WorkloadConfig& config, ThreadPool& pool,
                     GenTimings* timings) {
  Emitted out;
  out.users = Produce(
      config, pool, Mode::kRecords, 0, 1, timings,
      [&](std::span<Chunk> chunks) {
        const auto t0 = Clock::now();
        pool.Run(RecordColumns::kColumnCount, [&](std::size_t c) {
          RecordColumns::VisitColumn(c, [&](auto column) {
            auto& dst = out.records.*column;
            std::size_t n = dst.size();
            for (const Chunk& k : chunks) n += (k.records.*column).size();
            dst.reserve(n);
            for (Chunk& k : chunks) {
              auto& src = k.records.*column;
              dst.insert(dst.end(), src.begin(), src.end());
              src = std::remove_reference_t<decltype(src)>();
            }
          });
        });
        if (timings) timings->sort_s += Since(t0);
      });
  return out;
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
  if (timings) timings->sort_s += Since(s0);

  // The sorted columns move straight into the store builder — no
  // record-by-record append, no AoS copy.
  TraceStore::Builder b;
  b.day_base = config_.trace_start;
  b.timestamps = std::move(cols.timestamps);
  b.device_types = std::move(cols.device_types);
  b.device_ids = std::move(cols.device_ids);
  b.raw_users = std::move(cols.user_ids);
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
// in user order to a buffer that is flushed as a stably-sorted slice when
// the next chunk would overflow it. The buffer therefore always holds a
// contiguous user range, so every spill is a stably-sorted contiguous
// partition of the user-ordered emission — one group of the partitioned
// reader. The pool is idle between windows, so the sink appends, sorts and
// writes each spill on it. Chunk boundaries and flush points depend only on
// the config, never on the thread count.
SpillSummary WorkloadGenerator::GenerateToPartitions(
    const SpillConfig& spill, GenTimings* timings) const {
  return GenerateToPartitions(spill, SliceSink{}, timings);
}

SpillSummary WorkloadGenerator::GenerateToPartitions(
    const SpillConfig& spill, const SliceSink& slice_sink,
    GenTimings* timings) const {
  const auto t_total = Clock::now();
  ThreadPool pool(config_.threads);
  PartitionedTraceWriter writer(spill.dir, config_.trace_start);

  // Still accounted in AoS LogRecord bytes: flush boundaries are part of
  // the deterministic spill layout and must not shift with the emitter's
  // in-memory representation.
  const std::size_t budget_records = std::max<std::size_t>(
      spill.max_buffer_bytes / sizeof(LogRecord), std::size_t{64} * 1024);

  SpillSummary sum;
  RecordColumns buffer;
  RecordColumnsScratch sort_scratch;
  std::size_t buffer_growths = 0;
  const auto flush = [&] {
    if (buffer.empty()) return;
    auto f0 = Clock::now();
    buffer.SortByTimeOrder(sort_scratch, pool);
    if (timings) {
      const auto f1 = Clock::now();
      timings->sort_s += std::chrono::duration<double>(f1 - f0).count();
      f0 = f1;
    }
    writer.WriteSortedSlice(buffer, &pool);
    if (timings) timings->write_s += Since(f0);
    ++sum.spills;
    if (slice_sink) {
      // Hand the sealed slice to the analysis side; a blocking sink is the
      // backpressure that keeps generation at the analysis rate.
      slice_sink(std::move(buffer));
      buffer = RecordColumns();
    } else {
      // Pooled: keep the capacity for the next fill cycle.
      buffer.clear();
    }
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
                }
              })
          .size();
  flush();
  const auto t0 = Clock::now();
  writer.Finish();
  sum.run_files = writer.run_files();
  if (timings) {
    timings->write_s += Since(t0);
    timings->record_buffer_growths += buffer_growths;
    timings->total_s += Since(t_total);
  }
  return sum;
}

}  // namespace mcloud::workload
