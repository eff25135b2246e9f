// Tests for the analysis library: sessionizer, session stats, burstiness,
// usage patterns, engagement, activity models, timeseries, and the
// performance dissection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/activity_model.h"
#include "analysis/burstiness.h"
#include "analysis/engagement.h"
#include "analysis/file_size_model.h"
#include "analysis/interval_model.h"
#include "analysis/perf_analysis.h"
#include "analysis/session_stats.h"
#include "analysis/sessionizer.h"
#include "analysis/usage_patterns.h"
#include "analysis/workload_timeseries.h"
#include "util/timeutil.h"

namespace mcloud::analysis {
namespace {

LogRecord Rec(UnixSeconds ts, std::uint64_t user, Direction dir,
              RequestType type, Bytes volume = 0,
              DeviceType dev = DeviceType::kAndroid) {
  LogRecord r;
  r.timestamp = ts;
  r.user_id = user;
  r.device_id = user * 100 + (dev == DeviceType::kPc ? 1 : 0);
  r.device_type = dev;
  r.direction = dir;
  r.request_type = type;
  r.data_volume = volume;
  r.processing_time = 1.0;
  r.server_time = 0.1;
  r.avg_rtt = 0.1;
  return r;
}

LogRecord Op(UnixSeconds ts, std::uint64_t user, Direction dir,
             DeviceType dev = DeviceType::kAndroid) {
  return Rec(ts, user, dir, RequestType::kFileOperation, 0, dev);
}

LogRecord Chunk(UnixSeconds ts, std::uint64_t user, Direction dir,
                Bytes volume = kChunkSize,
                DeviceType dev = DeviceType::kAndroid) {
  return Rec(ts, user, dir, RequestType::kChunkRequest, volume, dev);
}

TEST(Sessionizer, SplitsOnGapAboveTau) {
  const UnixSeconds t0 = kTraceStart;
  std::vector<LogRecord> trace = {
      Op(t0, 1, Direction::kStore),
      Chunk(t0 + 5, 1, Direction::kStore),
      Op(t0 + 10, 1, Direction::kStore),
      // gap of 2 hours > tau: new session
      Op(t0 + 10 + 7200, 1, Direction::kStore),
  };
  const auto sessions = Sessionizer(kHour).Sessionize(trace);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].store_ops, 2u);
  EXPECT_EQ(sessions[0].chunk_requests, 1u);
  EXPECT_EQ(sessions[1].store_ops, 1u);
}

TEST(Sessionizer, ChunksExtendButNeverSplit) {
  const UnixSeconds t0 = kTraceStart;
  std::vector<LogRecord> trace = {
      Op(t0, 1, Direction::kStore),
      // Chunks trail for 90 minutes — longer than tau, but no new session.
      Chunk(t0 + 1800, 1, Direction::kStore),
      Chunk(t0 + 5400, 1, Direction::kStore),
  };
  const auto sessions = Sessionizer(kHour).Sessionize(trace);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].chunk_requests, 2u);
  EXPECT_DOUBLE_EQ(sessions[0].Length(), 5400.0);
  EXPECT_DOUBLE_EQ(sessions[0].OperatingTime(), 0.0);
}

TEST(Sessionizer, UsersAreIndependent) {
  const UnixSeconds t0 = kTraceStart;
  std::vector<LogRecord> trace = {
      Op(t0, 1, Direction::kStore),
      Op(t0 + 1, 2, Direction::kRetrieve),
      Op(t0 + 2, 1, Direction::kStore),
  };
  const auto sessions = Sessionizer().Sessionize(trace);
  ASSERT_EQ(sessions.size(), 2u);
}

TEST(Sessionizer, RequiresSortedTrace) {
  std::vector<LogRecord> trace = {
      Op(kTraceStart + 10, 1, Direction::kStore),
      Op(kTraceStart, 1, Direction::kStore),
  };
  EXPECT_THROW((void)Sessionizer().Sessionize(trace), Error);
}

TEST(Sessionizer, VolumeAccounting) {
  const UnixSeconds t0 = kTraceStart;
  std::vector<LogRecord> trace = {
      Op(t0, 1, Direction::kStore),
      Chunk(t0 + 1, 1, Direction::kStore, 100),
      Op(t0 + 2, 1, Direction::kRetrieve),
      Chunk(t0 + 3, 1, Direction::kRetrieve, 200),
  };
  const auto sessions = Sessionizer().Sessionize(trace);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].store_volume, 100u);
  EXPECT_EQ(sessions[0].retrieve_volume, 200u);
  EXPECT_EQ(sessions[0].SessionType(), Session::Type::kMixed);
}

TEST(InterOpIntervals, OnlyFileOpsCount) {
  const UnixSeconds t0 = kTraceStart;
  std::vector<LogRecord> trace = {
      Op(t0, 1, Direction::kStore),
      Chunk(t0 + 2, 1, Direction::kStore),
      Op(t0 + 10, 1, Direction::kStore),
      Op(t0 + 20, 2, Direction::kStore),  // other user: no interval yet
  };
  const auto intervals = InterOpIntervals(trace);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0], 10.0);
}

TEST(IntervalModel, RecoversBimodalStructure) {
  // Synthesize intervals: intra-session around 3 s, inter-session around a
  // day, and verify the full Fig 3 pipeline finds both.
  Rng rng(1);
  LogBins sketch = MakeIntervalSketch();
  std::uint64_t gap = 0;
  const auto add = [&](double seconds) {
    ++gap;  // a distinct (user, timestamp) jitter key per gap
    AddIntervalToSketch(sketch, gap, gap, seconds);
  };
  for (int i = 0; i < 30000; ++i) add(std::pow(10.0, rng.Normal(0.5, 0.4)));
  for (int i = 0; i < 5000; ++i) add(std::pow(10.0, rng.Normal(4.9, 0.4)));

  const auto model = FitIntervalModel(sketch);
  EXPECT_NEAR(model.intra_mean_seconds, 3.16, 1.0);
  EXPECT_GT(model.inter_mean_seconds, 0.5 * kDay);
  // Valley and GMM crossover both land between the modes.
  EXPECT_GT(model.valley_tau, 60.0);
  EXPECT_LT(model.valley_tau, 12 * kHour);
  EXPECT_GT(model.gmm_tau, 60.0);
  EXPECT_LT(model.gmm_tau, 12 * kHour);
}

TEST(IntervalModel, MixtureCrossoverBetweenMeans) {
  const GaussianMixture m({{0.8, 0.0, 1.0}, {0.2, 6.0, 1.0}});
  const double cross = MixtureCrossover(m);
  EXPECT_GT(cross, 0.0);
  EXPECT_LT(cross, 6.0);
  EXPECT_NEAR(m.Responsibility(0, cross), 0.5, 1e-3);
}

std::vector<Session> SyntheticSessions() {
  std::vector<Session> sessions;
  // 3 store-only with 1..3 ops, 2 retrieve-only, 1 mixed.
  for (int i = 0; i < 3; ++i) {
    Session s;
    s.user_id = 1;
    s.begin = kTraceStart;
    s.end = kTraceStart + 100;
    s.first_op = kTraceStart;
    s.last_op = kTraceStart + 5;
    s.store_ops = i + 1;
    s.store_volume = FromMB(1.5) * (i + 1);
    sessions.push_back(s);
  }
  for (int i = 0; i < 2; ++i) {
    Session s;
    s.user_id = 2;
    s.begin = kTraceStart;
    s.end = kTraceStart + 200;
    s.first_op = kTraceStart;
    s.last_op = kTraceStart + 50;
    s.retrieve_ops = 2;
    s.retrieve_volume = FromMB(60);
    sessions.push_back(s);
  }
  Session mixed;
  mixed.user_id = 3;
  mixed.begin = kTraceStart;
  mixed.end = kTraceStart + 50;
  mixed.store_ops = 1;
  mixed.retrieve_ops = 1;
  mixed.store_volume = FromMB(1);
  mixed.retrieve_volume = FromMB(1);
  sessions.push_back(mixed);
  return sessions;
}

TEST(SessionStats, Classification) {
  const auto split = ClassifySessions(SyntheticSessions());
  EXPECT_EQ(split.total, 6u);
  EXPECT_EQ(split.store_only, 3u);
  EXPECT_EQ(split.retrieve_only, 2u);
  EXPECT_EQ(split.mixed, 1u);
  EXPECT_NEAR(split.StoreShare(), 0.5, 1e-12);
}

TEST(SessionStats, SizeByOpCount) {
  const auto bins = SessionSizeByOpCount(SyntheticSessions(),
                                         Session::Type::kStoreOnly);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0].file_ops, 1u);
  EXPECT_NEAR(bins[0].avg_mb, 1.5, 1e-6);
  EXPECT_NEAR(bins[2].avg_mb, 4.5, 1e-6);
  EXPECT_EQ(bins[1].sessions, 1u);
}

TEST(SessionStats, AvgFileSizeSample) {
  const auto sizes = AvgFileSizeSample(SyntheticSessions(),
                                       Session::Type::kRetrieveOnly);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_NEAR(sizes[0], 30.0, 1e-6);  // 60 MB over 2 files
}

TEST(Burstiness, GroupsAndFractions) {
  std::vector<Session> sessions;
  for (int i = 0; i < 10; ++i) {
    Session s;
    s.begin = kTraceStart;
    s.end = kTraceStart + 100;
    s.first_op = kTraceStart;
    s.last_op = kTraceStart + (i < 8 ? 5 : 60);  // 8 bursty, 2 not
    s.store_ops = 25;
    sessions.push_back(s);
  }
  const auto groups = NormalizedOperatingTimes(sessions);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[2].min_ops_exclusive, 20u);
  EXPECT_EQ(groups[2].normalized_times.size(), 10u);
  EXPECT_NEAR(FractionBelow(groups[2], 0.1), 0.8, 1e-12);
}

TEST(UsagePatterns, ClassificationRules) {
  UserUsage u;
  u.store_volume = FromMB(100);
  u.retrieve_volume = 0;
  EXPECT_EQ(u.Classify(), paper::UserClass::kUploadOnly);
  u.retrieve_volume = FromMB(100);
  EXPECT_EQ(u.Classify(), paper::UserClass::kMixed);
  u.store_volume = 0;
  EXPECT_EQ(u.Classify(), paper::UserClass::kDownloadOnly);
  u.retrieve_volume = FromMB(0.5);
  EXPECT_EQ(u.Classify(), paper::UserClass::kOccasional);
}

TEST(UsagePatterns, BuildFromTrace) {
  std::vector<LogRecord> trace = {
      Op(kTraceStart, 1, Direction::kStore),
      Chunk(kTraceStart + 1, 1, Direction::kStore, FromMB(5)),
      Op(kTraceStart + 2, 1, Direction::kRetrieve,
         DeviceType::kPc),
      Chunk(kTraceStart + 3, 1, Direction::kRetrieve, FromMB(2),
            DeviceType::kPc),
  };
  const auto usage = BuildUserUsage(trace);
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].store_volume, FromMB(5));
  EXPECT_EQ(usage[0].retrieve_volume, FromMB(2));
  EXPECT_EQ(usage[0].stored_files, 1u);
  EXPECT_EQ(usage[0].retrieved_files, 1u);
  EXPECT_TRUE(usage[0].MobileAndPc());
  EXPECT_EQ(usage[0].mobile_devices, 1u);
}

TEST(UsagePatterns, RatioSaturation) {
  UserUsage u;
  u.store_volume = FromMB(10);
  EXPECT_GT(u.VolumeRatio(), paper::kUploadOnlyRatio);
  u.store_volume = 0;
  u.retrieve_volume = FromMB(10);
  EXPECT_LT(u.VolumeRatio(), paper::kDownloadOnlyRatio);
}

TEST(UsagePatterns, TableColumnSharesSumToOne) {
  std::vector<UserUsage> usage;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    UserUsage u;
    u.user_id = i;
    u.mobile_devices = 1;
    u.store_volume = rng.Bernoulli(0.6) ? FromMB(rng.Uniform(0, 50)) : 0;
    u.retrieve_volume = rng.Bernoulli(0.3) ? FromMB(rng.Uniform(0, 50)) : 0;
    usage.push_back(u);
  }
  const auto col = BuildUserTypeColumn(usage, DeviceProfile::kMobileOnly);
  EXPECT_EQ(col.users, 500u);
  double total = 0;
  for (double s : col.user_share) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Engagement, ReturnCurveCounting) {
  // User 1: active day 0 and day 2. User 2: day 0 only. Both 1-device.
  std::vector<Session> sessions;
  for (const auto& [user, day] :
       std::vector<std::pair<std::uint64_t, int>>{{1, 0}, {1, 2}, {2, 0}}) {
    Session s;
    s.user_id = user;
    s.begin = kTraceStart + static_cast<UnixSeconds>(day) * 86400 + 100;
    s.end = s.begin + 10;
    s.store_ops = 1;
    sessions.push_back(s);
  }
  std::vector<UserUsage> usage(2);
  usage[0].user_id = 1;
  usage[0].mobile_devices = 1;
  usage[1].user_id = 2;
  usage[1].mobile_devices = 1;

  const auto curves = ReturnCurves(sessions, usage, kTraceStart, 7);
  const auto& one_dev = curves[0];
  EXPECT_EQ(one_dev.day1_users, 2u);
  EXPECT_NEAR(one_dev.active_on_day[1], 0.5, 1e-12);  // day 2 -> index 1
  EXPECT_NEAR(one_dev.never_returned, 0.5, 1e-12);
}

TEST(Engagement, RetrievalReturnUpperBound) {
  // Uploader on day 0 who retrieves on day 3.
  std::vector<Session> sessions;
  Session up;
  up.user_id = 1;
  up.begin = kTraceStart + 100;
  up.end = up.begin + 10;
  up.store_ops = 1;
  sessions.push_back(up);
  Session down;
  down.user_id = 1;
  down.begin = kTraceStart + 3 * 86400;
  down.end = down.begin + 10;
  down.retrieve_ops = 1;
  sessions.push_back(down);

  std::vector<UserUsage> usage(1);
  usage[0].user_id = 1;
  usage[0].mobile_devices = 1;

  const auto curves = RetrievalReturns(sessions, usage, kTraceStart, 7);
  const auto& one_dev = curves[0];
  EXPECT_EQ(one_dev.day1_uploaders, 1u);
  EXPECT_DOUBLE_EQ(one_dev.retrieved_by_day[2], 0.0);
  EXPECT_DOUBLE_EQ(one_dev.retrieved_by_day[3], 1.0);
  EXPECT_DOUBLE_EQ(one_dev.retrieved_by_day[6], 1.0);
  EXPECT_DOUBLE_EQ(one_dev.never_retrieved, 0.0);
}

TEST(ActivityModel, FitsAndRanks) {
  std::vector<UserUsage> usage;
  Rng rng(3);
  const StretchedExponential law(0.018, 0.2);
  for (int i = 0; i < 5000; ++i) {
    UserUsage u;
    u.user_id = i;
    const double cap = law.Ccdf(1.0);
    double v = rng.Uniform() * cap;
    while (v <= 0) v = rng.Uniform() * cap;
    u.stored_files =
        static_cast<std::uint64_t>(std::max(1.0, std::floor(law.Quantile(v))));
    usage.push_back(u);
  }
  const auto result = FitActivity(usage, Direction::kStore);
  EXPECT_EQ(result.active_users, 5000u);
  EXPECT_NEAR(result.se.c, 0.2, 0.05);
  EXPECT_GT(result.se.r_squared, result.power_law.r_squared);
  // Ranked series is descending.
  for (std::size_t i = 1; i < result.ranked.size(); ++i)
    EXPECT_GE(result.ranked[i - 1], result.ranked[i]);

  const std::vector<std::size_t> ranks = {1, 10, 100};
  const auto curve = SePredictedCurve(result.se, ranks);
  EXPECT_GT(curve[0], curve[2]);
}

TEST(Timeseries, BinsVolumeAndFiles) {
  std::vector<LogRecord> trace = {
      Op(kTraceStart + 100, 1, Direction::kStore),
      Chunk(kTraceStart + 200, 1, Direction::kStore, FromMB(1)),
      Op(kTraceStart + 3600 + 10, 1, Direction::kRetrieve),
      Chunk(kTraceStart + 3600 + 20, 1, Direction::kRetrieve, FromMB(3)),
  };
  const auto ts = BuildTimeseries(trace, kTraceStart, 1);
  ASSERT_EQ(ts.hours.size(), 24u);
  EXPECT_EQ(ts.hours[0].stored_files, 1u);
  EXPECT_NEAR(ts.hours[0].StoreVolumeGb(), 0.001, 1e-9);
  EXPECT_EQ(ts.hours[1].retrieved_files, 1u);
  EXPECT_NEAR(ts.TotalRetrieveGb(), 0.003, 1e-9);
}

TEST(Timeseries, PeakHourOfDay) {
  std::vector<LogRecord> trace;
  // Two days of load, both peaking at hour 23.
  for (int day = 0; day < 2; ++day) {
    trace.push_back(Chunk(kTraceStart + day * 86400 + 23 * 3600, 1,
                          Direction::kStore, FromMB(100)));
    trace.push_back(Chunk(kTraceStart + day * 86400 + 12 * 3600, 1,
                          Direction::kStore, FromMB(10)));
  }
  std::sort(trace.begin(), trace.end(), LogRecordTimeOrder);
  const auto ts = BuildTimeseries(trace, kTraceStart, 2);
  EXPECT_EQ(ts.PeakHourOfDay(), 23);
}

TEST(FileSizeModel, FitsMixtureAndCcdfSeries) {
  Rng rng(4);
  const MixtureExponential truth({{0.9, 1.5}, {0.1, 30.0}});
  LogBins sketch = MakeSizeSketch();
  TDigest digest;
  for (int i = 0; i < 30000; ++i) {
    const double size = truth.Sample(rng);
    sketch.Add(size);
    digest.Add(size);
  }
  const auto model = FitFileSizeModel(sketch, digest);
  EXPECT_GE(model.selection.selected_n, 2u);
  EXPECT_EQ(model.grid_mb.size(), model.empirical_ccdf.size());
  EXPECT_EQ(model.grid_mb.size(), model.model_ccdf.size());
  // Model and empirical CCDFs track each other.
  for (std::size_t i = 0; i < model.grid_mb.size(); ++i) {
    EXPECT_NEAR(model.model_ccdf[i], model.empirical_ccdf[i], 0.05);
  }
}

TEST(PerfAnalysis, FiltersByDeviceDirectionAndProxy) {
  std::vector<LogRecord> trace;
  LogRecord ok = Chunk(kTraceStart, 1, Direction::kStore);
  ok.processing_time = 2.0;
  ok.server_time = 0.5;
  trace.push_back(ok);
  LogRecord proxied = ok;
  proxied.proxied = true;
  trace.push_back(proxied);
  LogRecord ios = ok;
  ios.device_type = DeviceType::kIos;
  trace.push_back(ios);

  const auto android =
      ChunkTransferTimes(trace, DeviceType::kAndroid, Direction::kStore);
  ASSERT_EQ(android.size(), 1u);
  EXPECT_NEAR(android[0], 1.5, 1e-12);
  EXPECT_EQ(
      ChunkTransferTimes(trace, DeviceType::kIos, Direction::kStore).size(),
      1u);
  EXPECT_EQ(RttSamples(trace).size(), 2u);  // proxied excluded
}

TEST(PerfAnalysis, SendingWindowEstimate) {
  std::vector<LogRecord> trace;
  LogRecord r = Chunk(kTraceStart, 1, Direction::kStore, 512 * kKiB);
  r.avg_rtt = 0.1;
  r.server_time = 0.1;
  r.processing_time = 0.1 + 0.8;  // ttran chosen so swnd = 64 KiB
  trace.push_back(r);
  const auto swnd = SendingWindowEstimates(trace);
  ASSERT_EQ(swnd.size(), 1u);
  EXPECT_NEAR(swnd[0], 64 * 1024, 1.0);
}

TEST(PerfAnalysis, ChunkPerfDissection) {
  std::vector<cloud::ChunkPerf> perf;
  for (int i = 0; i < 10; ++i) {
    cloud::ChunkPerf p;
    p.device = DeviceType::kAndroid;
    p.direction = Direction::kStore;
    p.tclt = 0.3;
    p.tsrv = 0.1;
    p.idle_before = i == 0 ? 0.0 : 0.5;
    p.rto_at_idle = 0.4;
    p.restarted = i > 0 && i % 2 == 0;
    p.ttran = 2.0;
    perf.push_back(p);
  }
  EXPECT_EQ(TcltSamples(perf, DeviceType::kAndroid, Direction::kStore).size(),
            10u);
  EXPECT_EQ(
      IdleToRtoRatios(perf, DeviceType::kAndroid, Direction::kStore).size(),
      9u);  // the first chunk has no preceding gap
  EXPECT_NEAR(
      SlowStartRestartShare(perf, DeviceType::kAndroid, Direction::kStore),
      4.0 / 9.0, 1e-12);
  EXPECT_TRUE(
      TcltSamples(perf, DeviceType::kIos, Direction::kStore).empty());
}

}  // namespace
}  // namespace mcloud::analysis
