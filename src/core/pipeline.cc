#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
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
            report.store_size_model = analysis::FitFileSizeModel(
                sk.store_avg_mb, sk.store_avg_mb_digest);
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
            report.retrieve_size_model = analysis::FitFileSizeModel(
                sk.retrieve_avg_mb, sk.retrieve_avg_mb_digest);
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
  per_user_s += t_columns + t_stats + t_engagement;
  fits_s += t_store_fit + t_retrieve_fit + t_activity;
}

/// Streams a trace's analysis-column blocks into a sink, in global time
/// order, one calendar day (or part of one) per block.
using Scan = std::function<void(const PartitionedTrace::BlockSink&)>;

Scan StoreScan(const TraceStore& store) {
  return [&store](const PartitionedTrace::BlockSink& sink) {
    for (const TraceStore::DayPartition& part : store.day_partitions())
      sink(part.day, BlockOf(store, part.begin, part.end));
  };
}

/// What one walk produces, before the report tail.
struct WalkResult {
  analysis::FusedRowPassResult row;
  analysis::FusedPerUserResult per_user;
  /// The Fig 3 interval fit, when the walk needed it to pick τ.
  std::optional<analysis::IntervalModel> interval_model;
};

/// The one block walk behind every entry point. With a fixed τ one scan
/// feeds both streaming cores. With τ = auto the per-user core needs the
/// valley τ, which needs the complete interval sketch: a first scan feeds
/// the row-order core, the sketch is fitted, and a second scan feeds the
/// per-user core.
WalkResult Walk(const PipelineOptions& options,
                std::span<const std::uint64_t> user_ids, UnixSeconds day_base,
                const Scan& scan, ThreadPool& pool, StageTimings& t) {
  WalkResult w;
  analysis::StreamingRowPass row_pass(user_ids, options.trace_start,
                                      options.days, day_base);
  std::optional<analysis::StreamingPerUserPass> per_user_pass;
  if (options.session_tau > 0)
    per_user_pass.emplace(user_ids, options.session_tau);

  auto t0 = Clock::now();
  scan([&](std::int64_t day, const TraceRowBlock& block) {
    row_pass.Consume(day, block);
    if (per_user_pass) per_user_pass->Consume(block);
  });
  w.row = row_pass.TakeResult();
  t.scan_s += Since(t0);

  if (!per_user_pass) {
    t0 = Clock::now();
    w.interval_model = analysis::FitIntervalModel(w.row.intervals);
    t.fits_s += Since(t0);
    t0 = Clock::now();
    per_user_pass.emplace(user_ids, w.interval_model->valley_tau);
    scan([&](std::int64_t, const TraceRowBlock& block) {
      per_user_pass->Consume(block);
    });
    t.sessionize_s += Since(t0);
  }
  t0 = Clock::now();
  w.per_user = per_user_pass->Finish(pool);
  t.sessionize_s += Since(t0);
  return w;
}

/// The report tail every entry point shares: the Fig 1 series, the §2.2
/// counts, the Fig 3 interval fit, then the shared stages.
FullReport Assemble(ThreadPool& pool, const PipelineOptions& options,
                    std::size_t records, WalkResult&& w, StageTimings& t) {
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
    const auto t0 = Clock::now();
    report.interval_model = analysis::FitIntervalModel(w.row.intervals);
    t.fits_s += Since(t0);
  }
  report.sketches.intervals = std::move(w.row.intervals);
  report.mobile_users = w.per_user.mobile_users;
  report.mobile_devices = w.per_user.mobile_devices;

  const analysis::FusedPerUserResult& p = w.per_user;
  RunSharedStages(pool, options, p.usage, p.mobile_usage, p.sessions,
                  p.mobile_sessions, report, t.per_user_s, t.fits_s);
  return report;
}

/// Walk one whole trace and assemble its report.
FullReport Analyze(const PipelineOptions& options, std::size_t records,
                   std::span<const std::uint64_t> user_ids,
                   UnixSeconds day_base, const Scan& scan,
                   StageTimings* timings) {
  const auto t_total = Clock::now();
  StageTimings t;
  ThreadPool pool(ClampThreadsToHardware(options.threads));
  WalkResult w = Walk(options, user_ids, day_base, scan, pool, t);
  FullReport report = Assemble(pool, options, records, std::move(w), t);
  t.total_s = Since(t_total);
  if (timings) *timings = t;
  return report;
}

/// Fold one slice's walk into the running total. Slices cover contiguous
/// ascending user ranges, so concatenating sessions and usage keeps the
/// canonical order; hour bins, the interval sketch and the counts sum
/// exactly.
void MergeSlice(WalkResult& total, WalkResult&& slice) {
  auto& hours = total.row.timeseries.hours;
  auto& slice_hours = slice.row.timeseries.hours;
  if (hours.empty()) {
    hours = std::move(slice_hours);
  } else {
    MCLOUD_REQUIRE(hours.size() == slice_hours.size(),
                   "slice hour windows disagree");
    for (std::size_t i = 0; i < hours.size(); ++i) {
      hours[i].store_volume_bytes += slice_hours[i].store_volume_bytes;
      hours[i].retrieve_volume_bytes += slice_hours[i].retrieve_volume_bytes;
      hours[i].stored_files += slice_hours[i].stored_files;
      hours[i].retrieved_files += slice_hours[i].retrieved_files;
    }
  }
  total.row.intervals.Merge(slice.row.intervals);
  total.row.mobile_records += slice.row.mobile_records;
  total.row.android_records += slice.row.android_records;

  auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  analysis::FusedPerUserResult& p = total.per_user;
  append(p.sessions, slice.per_user.sessions);
  append(p.mobile_sessions, slice.per_user.mobile_sessions);
  append(p.usage, slice.per_user.usage);
  append(p.mobile_usage, slice.per_user.mobile_usage);
  append(p.mobile_device_ids, slice.per_user.mobile_device_ids);
  p.mobile_users += slice.per_user.mobile_users;
}

/// A producer slice as a store of the analysis columns, built as
/// GenerateColumnar builds its store: the columns move, nothing is copied.
TraceStore SliceStore(RecordColumns&& slice, UnixSeconds day_base) {
  TraceStore::Builder b;
  b.present = kAnalysisColumns;
  b.day_base = day_base;
  b.timestamps = std::move(slice.timestamps);
  b.device_types = std::move(slice.device_types);
  b.device_ids = std::move(slice.device_ids);
  b.raw_users = std::move(slice.user_ids);
  b.request_types = std::move(slice.request_types);
  b.directions = std::move(slice.directions);
  b.data_volumes = std::move(slice.data_volumes);
  slice = RecordColumns();  // the columns analysis never reads
  return std::move(b).Build();
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
                 StoreScan(store), timings);
}

FullReport AnalysisPipeline::RunStreaming(const PartitionedTrace& trace,
                                          StageTimings* timings) const {
  MCLOUD_REQUIRE(trace.rows() > 0, "empty trace");
  // Staging budget in rows: a staged row costs ~31 bytes across the seven
  // analysis columns; give the scan an eighth of the budget so the dense
  // per-user state and the session output stay the dominant terms.
  const std::size_t budget_mb =
      options_.max_memory_mb ? options_.max_memory_mb : 1024;
  const std::size_t staging_rows = std::max<std::size_t>(
      std::size_t{64} * 1024, budget_mb * (1024 * 1024 / 8) / 32);
  return Analyze(options_, static_cast<std::size_t>(trace.rows()),
                 trace.user_ids(), trace.day_base(),
                 [&](const PartitionedTrace::BlockSink& sink) {
                   trace.Scan(staging_rows, sink);
                 },
                 timings);
}

// The producer hands over sealed slices through a depth-1 bounded queue; a
// consumer thread walks each one while the producer builds the next. Every
// slice is time-sorted and carries a contiguous ascending user range's
// complete history, so the per-slice walks merge (MergeSlice) into exactly
// the walk result of the concatenated trace.
FullReport AnalysisPipeline::RunConcurrent(
    const std::function<void(const SliceConsumer&)>& produce,
    StageTimings* timings) const {
  MCLOUD_REQUIRE(options_.session_tau > 0,
                 "analyze-while-generate needs a fixed session tau: the "
                 "valley-derived tau is only known after the last slice");
  const auto t_total = Clock::now();

  // State below the line is owned by the consumer thread until join().
  WalkResult total;
  StageTimings t;
  std::size_t records = 0;
  std::exception_ptr consumer_error;

  // Depth-1 queue: one slice being analyzed, one being generated. The
  // producer blocks in the sink while the consumer is busy, bounding
  // resident data to two slices and pacing generation to analysis.
  std::mutex mu;
  std::condition_variable cv;
  RecordColumns slot;
  bool full = false;
  bool done = false;

  std::thread consumer([&] {
    // Finish's canonical sorts run inline here: ThreadPool::Run must not be
    // entered from two threads, and the caller owns the real pool.
    ThreadPool slice_pool(1);
    for (;;) {
      RecordColumns slice;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return full || done; });
        if (!full && done) return;
        slice = std::move(slot);
        slot.clear();
        full = false;
      }
      cv.notify_all();
      // After a failure, keep draining so the producer never deadlocks.
      if (slice.empty() || consumer_error) continue;
      try {
        records += slice.size();
        const auto t0 = Clock::now();
        const TraceStore store =
            SliceStore(std::move(slice), options_.trace_start);
        t.scan_s += Since(t0);
        MergeSlice(total, Walk(options_, store.user_ids(), store.day_base(),
                               StoreScan(store), slice_pool, t));
      } catch (...) {
        consumer_error = std::current_exception();
      }
    }
  });

  const SliceConsumer sink = [&](RecordColumns&& slice) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !full; });
    slot = std::move(slice);
    full = true;
    lock.unlock();
    cv.notify_all();
  };
  try {
    produce(sink);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    consumer.join();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  consumer.join();
  if (consumer_error) std::rethrow_exception(consumer_error);
  MCLOUD_REQUIRE(records > 0, "empty trace");

  // Device ids can recur across slices (a device id is only distinct per
  // user within a slice): union them for the global distinct count.
  auto& ids = total.per_user.mobile_device_ids;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  total.per_user.mobile_devices = ids.size();

  ThreadPool pool(ClampThreadsToHardware(options_.threads));
  FullReport report = Assemble(pool, options_, records, std::move(total), t);
  t.total_s = Since(t_total);
  if (timings) *timings = t;
  return report;
}

}  // namespace mcloud::core
