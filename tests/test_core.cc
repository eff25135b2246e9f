// Tests for the core layer: the end-to-end pipeline, the deferral
// simulator, and the §4.3 what-if harness.
#include <gtest/gtest.h>

#include "core/deferral.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/whatif.h"
#include "workload/generator.h"

namespace mcloud::core {
namespace {

workload::Workload SmallWorkload(std::uint64_t seed = 42) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 800;
  cfg.population.pc_only_users = 200;
  cfg.seed = seed;
  return workload::WorkloadGenerator(cfg).Generate();
}

TEST(Pipeline, ProducesCompleteReport) {
  const auto w = SmallWorkload();
  const AnalysisPipeline pipeline;
  const FullReport report = pipeline.Run(w.trace);

  EXPECT_EQ(report.records, w.trace.size());
  EXPECT_GT(report.mobile_users, 700u);
  EXPECT_GT(report.mobile_devices, report.mobile_users);
  EXPECT_GT(report.android_access_share, 0.5);

  EXPECT_GT(report.session_split.total, 0u);
  EXPECT_GT(report.session_split.StoreShare(),
            report.session_split.RetrieveShare());

  EXPECT_EQ(report.burstiness.size(), 3u);
  EXPECT_GE(report.store_size_model.selection.selected_n, 2u);
  EXPECT_EQ(report.engagement.size(), 4u);
  EXPECT_EQ(report.retrieval_returns.size(), 4u);
  EXPECT_GT(report.store_activity.active_users, 0u);
  EXPECT_GT(report.store_activity.se.r_squared, 0.95);
}

TEST(Pipeline, RenderFindingsMentionsKeyResults) {
  const auto w = SmallWorkload(7);
  const FullReport report = AnalysisPipeline().Run(w.trace);
  const std::string text = RenderFindings(report);
  EXPECT_NE(text.find("store-only"), std::string::npos);
  EXPECT_NE(text.find("SE"), std::string::npos);
  EXPECT_NE(text.find("never returned"), std::string::npos);
}

TEST(Pipeline, RejectsEmptyTrace) {
  const AnalysisPipeline pipeline;
  EXPECT_THROW((void)pipeline.Run(std::span<const LogRecord>{}), Error);
  EXPECT_THROW((void)pipeline.Run(TraceStore{}), Error);
  // A producer that never hands over a slice.
  EXPECT_THROW((void)pipeline.RunSlices([](const SliceVisitor&) {}), Error);
}

TEST(Pipeline, RunSlicesNeedsAFixedTau) {
  // τ = auto needs the whole interval sketch before the per-user walk, and
  // each slice is walked as it seals: the producer must not even start.
  PipelineOptions opts;
  opts.session_tau = 0;
  bool produced = false;
  EXPECT_THROW((void)AnalysisPipeline(opts).RunSlices(
                   [&](const SliceVisitor&) { produced = true; }),
               Error);
  EXPECT_FALSE(produced);
}

TEST(Pipeline, DataDerivedTauWorks) {
  const auto w = SmallWorkload(11);
  PipelineOptions opts;
  opts.session_tau = 0;  // derive from the histogram valley
  const FullReport report = AnalysisPipeline(opts).Run(w.trace);
  EXPECT_GT(report.interval_model.valley_tau, 0.0);
  EXPECT_GT(report.session_split.total, 0u);
}

TEST(Pipeline, FewerUsersThanThreadsGiveTheOneThreadReport) {
  // Three users of unequal activity (a small generated week folded onto
  // ids 1-3): at 3 and 4 threads the walk has one range per user, and no
  // thread count may change a bit of the report.
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 60;
  cfg.population.pc_only_users = 20;
  cfg.seed = 11;
  std::vector<LogRecord> trace =
      workload::WorkloadGenerator(cfg).Generate().trace;
  for (LogRecord& r : trace) {
    const std::uint64_t m = r.user_id % 7;
    r.user_id = m == 0 ? 1 : m <= 2 ? 2 : 3;
  }
  for (const Seconds tau : {3600.0, 0.0}) {
    PipelineOptions opts;
    opts.session_tau = tau;
    opts.threads = 1;
    const FullReport one = AnalysisPipeline(opts).Run(trace);
    ASSERT_EQ(one.mobile_users, 3u);
    for (const int threads : {2, 3, 4}) {
      opts.threads = threads;
      EXPECT_EQ(FingerprintReport(AnalysisPipeline(opts).Run(trace)),
                FingerprintReport(one))
          << "tau=" << tau << " threads=" << threads;
    }
  }
}

TEST(Deferral, FlattensPeakWithoutLosingVolume) {
  const auto w = SmallWorkload(13);
  DeferralPolicy policy;
  const auto result = SimulateDeferral(w.trace, policy, kTraceStart, 7, 1);

  EXPECT_GT(result.deferred_chunks, 0u);
  EXPECT_GT(result.deferred_share, 0.0);
  EXPECT_LT(result.peak_after_gb, result.peak_before_gb);
  EXPECT_GT(result.peak_reduction, 0.0);
  // Total stored volume is conserved — uploads move, they do not vanish.
  EXPECT_NEAR(result.before.TotalStoreGb(), result.after.TotalStoreGb(),
              1e-9);
  EXPECT_EQ(result.before.TotalStoredFiles(),
            result.after.TotalStoredFiles());
}

TEST(Deferral, RespectsRetrieversWhenAsked) {
  const auto w = SmallWorkload(17);
  DeferralPolicy protect;
  protect.only_non_retrievers = true;
  DeferralPolicy all;
  all.only_non_retrievers = false;
  const auto protected_result =
      SimulateDeferral(w.trace, protect, kTraceStart, 7, 1);
  const auto all_result = SimulateDeferral(w.trace, all, kTraceStart, 7, 1);
  EXPECT_GE(all_result.deferred_chunks, protected_result.deferred_chunks);
}

TEST(Deferral, OptInScalesEffect) {
  const auto w = SmallWorkload(19);
  DeferralPolicy half;
  half.opt_in = 0.5;
  DeferralPolicy full;
  full.opt_in = 1.0;
  const auto h = SimulateDeferral(w.trace, half, kTraceStart, 7, 1);
  const auto f = SimulateDeferral(w.trace, full, kTraceStart, 7, 1);
  EXPECT_LT(h.deferred_chunks, f.deferred_chunks);
}

TEST(Deferral, ValidatesPolicy) {
  const auto w = SmallWorkload(23);
  DeferralPolicy bad;
  bad.peak_begin_hour = 10;
  bad.peak_end_hour = 5;
  EXPECT_THROW((void)SimulateDeferral(w.trace, bad, kTraceStart), Error);
  bad = DeferralPolicy{};
  bad.opt_in = 1.5;
  EXPECT_THROW((void)SimulateDeferral(w.trace, bad, kTraceStart), Error);
}

TEST(WhatIf, StandardScenariosImproveOnBaseline) {
  WhatIfConfig cfg;
  cfg.device = DeviceType::kAndroid;
  cfg.file_size = 4 * kMiB;
  cfg.flows = 60;
  const auto scenarios = StandardScenarios();
  const auto outcomes = RunWhatIf(cfg, scenarios);
  ASSERT_EQ(outcomes.size(), scenarios.size());

  const auto& baseline = outcomes[0];
  EXPECT_GT(baseline.median_file_time, 0.0);
  EXPECT_GT(baseline.restart_share, 0.3);  // Android uploads restart a lot

  for (const auto& o : outcomes) {
    SCOPED_TRACE(o.name);
    EXPECT_GT(o.goodput_mbps, 0.0);
  }
  const auto find = [&](const char* needle) -> const core::WhatIfOutcome& {
    for (const auto& o : outcomes) {
      if (o.name.find(needle) != std::string::npos) return o;
    }
    throw Error(std::string("scenario not found: ") + needle);
  };
  // Larger chunks reduce the number of idle gaps and beat the baseline.
  EXPECT_LT(find("2MB chunks").median_file_time, baseline.median_file_time);
  // Disabling SSAI eliminates restarts entirely...
  const auto& ideal = find("ideal");
  EXPECT_DOUBLE_EQ(ideal.restart_share, 0.0);
  EXPECT_DOUBLE_EQ(ideal.timeouts_per_flow, 0.0);
  // ...but with realistic post-idle burst loss it pays timeouts, and the
  // paper's pacing recommendation avoids them while keeping cwnd.
  const auto& lossy = find("burst loss");
  const auto& paced = find("pacing");
  EXPECT_GT(lossy.timeouts_per_flow, 0.0);
  EXPECT_DOUBLE_EQ(paced.timeouts_per_flow, 0.0);
  EXPECT_LT(paced.median_file_time, lossy.median_file_time);
}

TEST(WhatIf, ChunkSizeSweepMonotoneGaps) {
  WhatIfConfig cfg;
  cfg.device = DeviceType::kIos;
  cfg.file_size = 8 * kMiB;
  cfg.flows = 40;
  const auto outcomes = RunWhatIf(cfg, ChunkSizeSweep());
  ASSERT_GE(outcomes.size(), 3u);
  // Bigger chunks -> fewer chunks per file -> weakly fewer restart chances;
  // goodput should not degrade as chunks grow.
  EXPECT_GT(outcomes.back().goodput_mbps, outcomes.front().goodput_mbps);
}

}  // namespace
}  // namespace mcloud::core
