#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "analysis/stream_engine.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/units.h"

namespace mcloud::core {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The stages that run once the sessions and usage tables exist. Every
/// input is read-only and every stage writes disjoint report fields, so the
/// stages run concurrently; inputs are canonical (ascending user /
/// (user, begin) order), making the outputs source-independent bit for bit.
void RunSharedStages(ThreadPool& pool, const PipelineOptions& options,
                     const std::vector<analysis::UserUsage>& usage,
                     const std::vector<analysis::UserUsage>& mobile_usage,
                     const std::vector<analysis::Session>& sessions,
                     const std::vector<analysis::Session>& mobile_sessions,
                     FullReport& report, double& per_user_s, double& fits_s) {
  double t_columns = 0;
  double t_stats = 0;
  double t_sizes = 0;
  double t_store_fit = 0;
  double t_retrieve_fit = 0;
  double t_engagement = 0;
  double t_activity = 0;
  ParallelInvoke(
      pool,
      {
          [&] {
            const auto t0 = Clock::now();
            report.mobile_only_column = analysis::BuildUserTypeColumn(
                usage, analysis::DeviceProfile::kMobileOnly);
            report.mobile_pc_column = analysis::BuildUserTypeColumn(
                usage, analysis::DeviceProfile::kMobileAndPc);
            report.pc_only_column = analysis::BuildUserTypeColumn(
                usage, analysis::DeviceProfile::kPcOnly);
            report.ratio_cdfs = analysis::RatioCdfs(usage);
            // Fig 7a counters: RatioSample's membership tests, without
            // materializing the sample (usage is canonical, so the counts
            // are source- and thread-count-independent).
            for (const analysis::UserUsage& u : usage) {
              if (!u.MobileOnly()) continue;
              if (u.store_volume == 0 && u.retrieve_volume == 0) continue;
              ++report.sketches.ratio_sample_users;
              if (std::abs(std::log10(u.VolumeRatio())) < 5.0)
                ++report.sketches.ratio_middle_users;
            }
            t_columns = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.session_split = analysis::ClassifySessions(mobile_sessions);
            report.burstiness =
                analysis::NormalizedOperatingTimes(mobile_sessions);
            // Fig 5a counters (denominator = session_split.total).
            for (const auto& s : mobile_sessions) {
              if (s.FileOps() == 1) ++report.sketches.single_op_sessions;
              if (s.FileOps() > 20) ++report.sketches.over20_op_sessions;
            }
            t_stats = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.store_session_sizes = analysis::SessionSizeByOpCount(
                mobile_sessions, analysis::Session::Type::kStoreOnly);
            report.retrieve_session_sizes = analysis::SessionSizeByOpCount(
                mobile_sessions, analysis::Session::Type::kRetrieveOnly);
            t_sizes = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            // One pass in canonical session order feeds the bin sketch and
            // the t-digest (AvgFileSizeSample's membership and value rules);
            // the fit then runs on the sketch's exact per-bin moments.
            auto& sk = report.sketches;
            for (const auto& s : mobile_sessions) {
              if (s.SessionType() != analysis::Session::Type::kStoreOnly)
                continue;
              if (s.FileOps() == 0 || s.Volume() == 0) continue;
              const double mb =
                  ToMB(s.Volume()) / static_cast<double>(s.FileOps());
              sk.store_avg_mb.Add(mb);
              sk.store_avg_mb_digest.Add(mb);
            }
            t_store_fit = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            auto& sk = report.sketches;
            for (const auto& s : mobile_sessions) {
              if (s.SessionType() != analysis::Session::Type::kRetrieveOnly)
                continue;
              if (s.FileOps() == 0 || s.Volume() == 0) continue;
              const double mb =
                  ToMB(s.Volume()) / static_cast<double>(s.FileOps());
              sk.retrieve_avg_mb.Add(mb);
              sk.retrieve_avg_mb_digest.Add(mb);
            }
            t_retrieve_fit = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.engagement = analysis::ReturnCurves(
                sessions, usage, options.trace_start, options.days);
            report.retrieval_returns = analysis::RetrievalReturns(
                sessions, usage, options.trace_start, options.days);
            t_engagement = Since(t0);
          },
          [&] {
            const auto t0 = Clock::now();
            report.store_activity =
                analysis::FitActivity(mobile_usage, Direction::kStore);
            report.retrieve_activity =
                analysis::FitActivity(mobile_usage, Direction::kRetrieve);
            t_activity = Since(t0);
          },
      });
  // The file-size fits run their EM candidates on the pool, so they run
  // after the batch above, one at a time: ThreadPool::Run is not
  // reentrant.
  const auto t0 = Clock::now();
  auto& sk = report.sketches;
  report.store_size_model = analysis::FitFileSizeModel(
      sk.store_avg_mb, sk.store_avg_mb_digest, {}, &pool);
  report.retrieve_size_model = analysis::FitFileSizeModel(
      sk.retrieve_avg_mb, sk.retrieve_avg_mb_digest, {}, &pool);
  per_user_s += t_columns + t_stats + t_sizes + t_engagement;
  fits_s += t_store_fit + t_retrieve_fit + t_activity + Since(t0);
}

/// One slice of the walk: a contiguous range of dense users and a reader
/// that streams their complete history, each user's rows in time order, in
/// blocks that each lie in one calendar day.
struct Slice {
  analysis::UserRange users;
  std::function<void(const PartitionedTrace::BlockSink&)> read;
};

/// Rows per block a partitioned trace is read in at most: about 0.5 MB of
/// analysis columns, so a block is still in cache when its rows are
/// consumed. Larger blocks measured no faster and cost RSS.
constexpr std::size_t kReadBlockRows = std::size_t{1} << 14;

/// A resident store as one slice, one calendar day per block.
Slice StoreSlice(const TraceStore& store) {
  const auto read = [&store](const PartitionedTrace::BlockSink& sink) {
    for (const TraceStore::DayPartition& part : store.day_partitions())
      sink(part.day, BlockOf(store, part.begin, part.end));
  };
  return {{0, store.users()}, read};
}

/// A sealed producer slice as one slice, read in place: one block per
/// calendar day, cut as a store's day partitions are.
Slice SealedSliceOf(const SealedSlice& slice, UnixSeconds day_base) {
  const auto read = [&slice, day_base](
                        const PartitionedTrace::BlockSink& sink) {
    const RecordColumns& r = slice.records;
    for (const TraceStore::DayPartition& part :
         TraceStore::DayPartitions(r.timestamps, day_base)) {
      const std::size_t n = part.end - part.begin;
      TraceRowBlock block;
      block.timestamps = std::span(r.timestamps).subspan(part.begin, n);
      block.device_types = std::span(r.device_types).subspan(part.begin, n);
      block.device_ids = std::span(r.device_ids).subspan(part.begin, n);
      block.users = slice.users.subspan(part.begin, n);
      block.request_types = std::span(r.request_types).subspan(part.begin, n);
      block.directions = std::span(r.directions).subspan(part.begin, n);
      block.data_volumes = std::span(r.data_volumes).subspan(part.begin, n);
      sink(part.day, block);
    }
  };
  return {{0, slice.user_ids.size()}, read};
}

/// What the walks produce, before the report tail.
struct WalkResult {
  analysis::FusedRowPassResult row;
  /// Each walk task's per-user results, in ascending user order.
  std::vector<analysis::FusedPerUserResult> per_user;
  /// The Fig 3 interval fit, when the walk needed it to pick τ.
  std::optional<analysis::IntervalModel> interval_model;
};

/// Fold the row pass of the next user range (or slice) into the running
/// total: hour bins and counts are integers and the interval sketch's
/// per-bin sums are integer-exact, so the sums do not depend on the split.
void MergeRows(analysis::FusedRowPassResult& total,
               analysis::FusedRowPassResult&& part) {
  auto& hours = total.timeseries.hours;
  auto& part_hours = part.timeseries.hours;
  if (hours.empty()) {
    hours = std::move(part_hours);
  } else {
    MCLOUD_REQUIRE(hours.size() == part_hours.size(),
                   "slice hour windows disagree");
    for (std::size_t i = 0; i < hours.size(); ++i) {
      hours[i].store_volume_bytes += part_hours[i].store_volume_bytes;
      hours[i].retrieve_volume_bytes += part_hours[i].retrieve_volume_bytes;
      hours[i].stored_files += part_hours[i].stored_files;
      hours[i].retrieved_files += part_hours[i].retrieved_files;
    }
  }
  total.intervals.Merge(part.intervals);
  total.mobile_records += part.mobile_records;
  total.android_records += part.android_records;
}

/// The per-user results of every task, concatenated in task order. Tasks
/// cover contiguous ascending user ranges, so concatenation keeps the
/// canonical (user, begin) and user orders. Each list is sized once and
/// filled by one pool task, which frees the parts' copies as it goes. A
/// device id can recur across ranges, so the ids are sorted and
/// deduplicated once, after the last part.
analysis::FusedPerUserResult MergePerUser(
    std::vector<analysis::FusedPerUserResult>& parts, ThreadPool& pool) {
  using Result = analysis::FusedPerUserResult;
  Result total;
  const auto concat = [&parts, &total](auto member) {
    auto& dst = total.*member;
    std::size_t n = 0;
    for (const Result& part : parts) n += (part.*member).size();
    dst.reserve(n);
    for (Result& part : parts) {
      auto& src = part.*member;
      dst.insert(dst.end(), src.begin(), src.end());
      std::remove_reference_t<decltype(src)>().swap(src);
    }
  };
  ParallelInvoke(pool, {[&] { concat(&Result::sessions); },
                        [&] { concat(&Result::mobile_sessions); },
                        [&] { concat(&Result::usage); },
                        [&] { concat(&Result::mobile_usage); },
                        [&] {
                          concat(&Result::mobile_device_ids);
                          auto& ids = total.mobile_device_ids;
                          std::sort(ids.begin(), ids.end());
                          ids.erase(std::unique(ids.begin(), ids.end()),
                                    ids.end());
                        }});
  for (const Result& part : parts) total.mobile_users += part.mobile_users;
  total.mobile_devices = total.mobile_device_ids.size();
  parts.clear();
  return total;
}

/// One user range's rows of each block, gathered into dense columns a
/// piece at a time. Handing a range's cores the whole block would make
/// both of them read every row and skip the other ranges' rows on an
/// unpredictable branch; the packer reads the user column once and copies
/// only the range's own rows.
class RangeRows {
 public:
  explicit RangeRows(analysis::UserRange users) : users_(users) {}

  /// fn(piece) for each piece of `block`'s rows whose user is in the
  /// range, in row order.
  template <typename Fn>
  void ForEachPiece(const TraceRowBlock& block, Fn&& fn) {
    rows_.resize(kPieceRows);
    const auto first = static_cast<std::uint32_t>(users_.begin);
    const std::size_t n_users = users_.end - users_.begin;
    for (std::size_t begin = 0; begin < block.rows(); begin += kPieceRows) {
      const std::size_t end = std::min(block.rows(), begin + kPieceRows);
      // Branch-free selection: always write the row, keep it if in range.
      std::size_t n = 0;
      for (std::size_t row = begin; row < end; ++row) {
        rows_[n] = static_cast<std::uint32_t>(row);
        n += block.users[row] - first < n_users;
      }
      if (n == 0) continue;
      const auto gather = [&](auto column, auto& packed) {
        packed.resize(n);
        for (std::size_t i = 0; i < n; ++i) packed[i] = column[rows_[i]];
        return std::span(std::as_const(packed));
      };
      TraceRowBlock piece;
      piece.timestamps = gather(block.timestamps, timestamps_);
      piece.device_types = gather(block.device_types, device_types_);
      piece.device_ids = gather(block.device_ids, device_ids_);
      piece.users = gather(block.users, users_column_);
      piece.request_types = gather(block.request_types, request_types_);
      piece.directions = gather(block.directions, directions_);
      piece.data_volumes = gather(block.data_volumes, data_volumes_);
      fn(piece);
    }
  }

 private:
  /// Rows per piece: a piece's packed columns stay in a core's L2.
  static constexpr std::size_t kPieceRows = 16384;

  analysis::UserRange users_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::int64_t> timestamps_;
  std::vector<std::uint8_t> device_types_;
  std::vector<std::uint64_t> device_ids_;
  std::vector<std::uint32_t> users_column_;
  std::vector<std::uint8_t> request_types_;
  std::vector<std::uint8_t> directions_;
  std::vector<std::uint64_t> data_volumes_;
};

/// The one walk behind every entry point. With a fixed τ one pass over
/// the slices feeds both streaming cores. With τ = auto the per-user core
/// needs the valley τ, which needs the complete interval sketch: a first
/// pass feeds the row-order core, the sketch is fitted, and a second pass
/// feeds the per-user core.
///
/// The work is a list of pool tasks, each one slice restricted to a
/// contiguous sub-range of its users, with its own pair of cores. A slice
/// is one task when there are at least as many slices as threads; with
/// fewer, each slice is cut into sub-ranges so that every thread gets one.
/// A task reads its slice itself and, when it is a sub-range, keeps only
/// its own users' rows. Threads take the tasks dynamically, and the
/// results go to `w` in task order, so in ascending user order, after
/// what `w` holds from the walks before (RunSlices walks one slice at a
/// time): the report is the same for every pool size and every cut. A walk
/// with τ = auto starts from an empty `w`.
void Walk(const PipelineOptions& options,
          std::span<const std::uint64_t> user_ids, UnixSeconds day_base,
          const std::vector<Slice>& slices, ThreadPool& pool, StageTimings& t,
          WalkResult& w) {
  struct Task {
    const Slice* slice;
    analysis::UserRange users;
    bool whole;  ///< the task covers its slice's every user
  };
  const std::size_t threads = static_cast<std::size_t>(pool.threads());
  const std::size_t cuts = (threads + slices.size() - 1) / slices.size();
  std::vector<Task> tasks;
  for (const Slice& slice : slices) {
    const std::size_t n = slice.users.end - slice.users.begin;
    const std::size_t slice_cuts = std::clamp<std::size_t>(n, 1, cuts);
    for (std::size_t c = 0; c < slice_cuts; ++c) {
      const ShardRange b = ShardBounds(n, slice_cuts, c);
      tasks.push_back(
          {&slice,
           {slice.users.begin + b.begin, slice.users.begin + b.end},
           slice_cuts == 1});
    }
  }
  std::vector<analysis::StreamingRowPass> row_passes;
  row_passes.reserve(tasks.size());
  for (const Task& task : tasks)
    row_passes.emplace_back(user_ids, options.trace_start, options.days,
                            day_base, task.users);
  std::vector<std::optional<analysis::StreamingPerUserPass>> per_user(
      tasks.size());
  const auto start_per_user = [&](Seconds tau) {
    for (std::size_t i = 0; i < tasks.size(); ++i)
      per_user[i].emplace(user_ids, tau, tasks[i].users);
  };
  const bool fixed_tau = options.session_tau > 0;
  if (fixed_tau) start_per_user(options.session_tau);
  // fn(i, day, rows) for task i's rows of every block of its slice, one
  // pool task per task: the blocks themselves when the task covers its
  // slice, else its users' packed pieces.
  const auto walk = [&](auto&& fn) {
    pool.Run(tasks.size(), [&](std::size_t i) {
      const Task& task = tasks[i];
      RangeRows rows(task.users);
      task.slice->read([&](std::int64_t day, const TraceRowBlock& block) {
        if (task.whole) return fn(i, day, block);
        rows.ForEachPiece(
            block, [&](const TraceRowBlock& piece) { fn(i, day, piece); });
      });
    });
  };

  auto t0 = Clock::now();
  walk([&](std::size_t i, std::int64_t day, const TraceRowBlock& rows) {
    row_passes[i].Consume(day, rows);
    if (fixed_tau) per_user[i]->Consume(rows);
  });
  for (analysis::StreamingRowPass& pass : row_passes)
    MergeRows(w.row, pass.TakeResult());
  t.scan_s += Since(t0);

  if (!fixed_tau) {
    t0 = Clock::now();
    w.interval_model = analysis::FitIntervalModel(w.row.intervals);
    t.fits_s += Since(t0);
    t0 = Clock::now();
    start_per_user(w.interval_model->valley_tau);
    walk([&](std::size_t i, std::int64_t, const TraceRowBlock& rows) {
      per_user[i]->Consume(rows);
    });
    t.sessionize_s += Since(t0);
  }
  t0 = Clock::now();
  const std::size_t first = w.per_user.size();
  w.per_user.resize(first + tasks.size());
  pool.Run(tasks.size(), [&](std::size_t i) {
    w.per_user[first + i] = per_user[i]->Finish();
    per_user[i].reset();
  });
  t.sessionize_s += Since(t0);
}

/// The report tail every entry point shares: the Fig 1 series, the §2.2
/// counts, the Fig 3 interval fit, then the shared stages.
FullReport Assemble(ThreadPool& pool, const PipelineOptions& options,
                    std::size_t records, WalkResult&& w, StageTimings& t) {
  auto t0 = Clock::now();
  const analysis::FusedPerUserResult p = MergePerUser(w.per_user, pool);
  t.sessionize_s += Since(t0);
  FullReport report;
  report.records = records;
  report.timeseries = std::move(w.row.timeseries);
  report.android_access_share =
      w.row.mobile_records == 0
          ? 0
          : static_cast<double>(w.row.android_records) /
                static_cast<double>(w.row.mobile_records);
  if (w.interval_model) {
    report.interval_model = std::move(*w.interval_model);
  } else {
    t0 = Clock::now();
    report.interval_model = analysis::FitIntervalModel(w.row.intervals);
    t.fits_s += Since(t0);
  }
  report.sketches.intervals = std::move(w.row.intervals);
  report.mobile_users = p.mobile_users;
  report.mobile_devices = p.mobile_devices;

  RunSharedStages(pool, options, p.usage, p.mobile_usage, p.sessions,
                  p.mobile_sessions, report, t.per_user_s, t.fits_s);
  return report;
}

/// Walk one whole trace and assemble its report.
FullReport Analyze(const PipelineOptions& options, std::size_t records,
                   std::span<const std::uint64_t> user_ids,
                   UnixSeconds day_base, const std::vector<Slice>& slices,
                   StageTimings* timings) {
  const auto t_total = Clock::now();
  StageTimings t;
  ThreadPool pool(ClampThreadsToHardware(options.threads));
  WalkResult w;
  Walk(options, user_ids, day_base, slices, pool, t, w);
  FullReport report = Assemble(pool, options, records, std::move(w), t);
  t.total_s = Since(t_total);
  if (timings) *timings = t;
  return report;
}

}  // namespace

AnalysisPipeline::AnalysisPipeline(const PipelineOptions& options)
    : options_(options) {
  MCLOUD_REQUIRE(options.days >= 1, "need at least one day");
}

FullReport AnalysisPipeline::Run(std::span<const LogRecord> trace,
                                 StageTimings* timings) const {
  MCLOUD_REQUIRE(!trace.empty(), "empty trace");
  return Run(TraceStore::FromRecords(trace, options_.trace_start), timings);
}

FullReport AnalysisPipeline::Run(const TraceStore& store,
                                 StageTimings* timings) const {
  MCLOUD_REQUIRE(!store.empty(), "empty trace");
  return Analyze(options_, store.rows(), store.user_ids(), store.day_base(),
                 {StoreSlice(store)}, timings);
}

FullReport AnalysisPipeline::RunStreaming(const PartitionedTrace& trace,
                                          StageTimings* timings) const {
  MCLOUD_REQUIRE(trace.rows() > 0, "empty trace");
  // Staging budget in rows: a staged row costs ~31 bytes across the seven
  // analysis columns; give the scan an eighth of the budget so the dense
  // per-user state and the session output stay the dominant terms. Each
  // thread reads through one block buffer, so the buffers share it.
  const std::size_t budget_mb =
      options_.max_memory_mb ? options_.max_memory_mb : 1024;
  const std::size_t staging_rows = std::max<std::size_t>(
      std::size_t{64} * 1024, budget_mb * (1024 * 1024 / 8) / 32);
  const std::size_t block_rows = std::min(
      kReadBlockRows,
      staging_rows /
          static_cast<std::size_t>(ClampThreadsToHardware(options_.threads)));
  // One slice per group: a group holds the complete history of a
  // contiguous user range, its rows in time order.
  std::vector<Slice> slices;
  for (std::size_t g = 0; g < trace.groups().size(); ++g) {
    const PartitionedTrace::Group& group = trace.groups()[g];
    slices.push_back({{group.user_begin, group.user_end},
                      [&trace, g, block_rows](
                          const PartitionedTrace::BlockSink& sink) {
                        trace.ReadGroup(g, block_rows, sink);
                      }});
  }
  return Analyze(options_, static_cast<std::size_t>(trace.rows()),
                 trace.user_ids(), trace.day_base(), slices, timings);
}

// Each slice is walked in place on the producer's pool while generation
// waits. Every slice is time-sorted and carries a contiguous ascending user
// range's complete history, above the slices before, so walking the slices
// one after the other into one result is exactly the walk of the
// concatenated trace.
FullReport AnalysisPipeline::RunSlices(
    const std::function<void(const SliceVisitor&)>& produce,
    StageTimings* timings) const {
  MCLOUD_REQUIRE(options_.session_tau > 0,
                 "walking slices as they seal needs a fixed session tau: "
                 "the valley-derived tau is only known after the last one");
  WalkResult total;
  StageTimings t;
  std::size_t records = 0;
  std::uint64_t last_user = 0;
  double walk_s = 0;
  produce([&](const SealedSlice& slice, ThreadPool& pool) {
    const auto t0 = Clock::now();
    const std::span<const std::uint64_t> ids = slice.user_ids;
    // The order check a partitioned trace writer makes, whether or not the
    // slice is written: each slice's users ascend, above every user before.
    MCLOUD_REQUIRE(slice.users.size() == slice.records.size() &&
                       !ids.empty() &&
                       std::adjacent_find(ids.begin(), ids.end(),
                                          std::greater_equal<>()) ==
                           ids.end(),
                   "a slice needs its users resolved, ascending");
    MCLOUD_REQUIRE(records == 0 || ids.front() > last_user,
                   "slice starts at user " + std::to_string(ids.front()) +
                       ", not above the previous slices' last user " +
                       std::to_string(last_user));
    last_user = ids.back();
    records += slice.records.size();
    Walk(options_, ids, options_.trace_start,
         {SealedSliceOf(slice, options_.trace_start)}, pool, t, total);
    walk_s += Since(t0);
  });
  MCLOUD_REQUIRE(records > 0, "empty trace");

  const auto t0 = Clock::now();
  ThreadPool pool(ClampThreadsToHardware(options_.threads));
  FullReport report = Assemble(pool, options_, records, std::move(total), t);
  t.total_s = walk_s + Since(t0);
  if (timings) *timings = t;
  return report;
}

}  // namespace mcloud::core
