// The out-of-core pipeline's determinism contract: spill-generate +
// RunStreaming must produce the bit-identical FullReport of the resident
// GenerateColumnar + Run path, at every thread count and every spill-buffer
// size, with a fixed τ (one walk) and with τ = auto (two walks; DESIGN.md,
// "Out-of-core pipeline").
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/pipeline.h"
#include "core/report.h"
#include "trace/partitioned_trace.h"
#include "validate/validator.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

workload::WorkloadConfig SmallConfig() {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 600;
  cfg.population.pc_only_users = 200;
  cfg.seed = 17;
  return cfg;
}

std::filesystem::path SpillDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::PipelineOptions ValleyTau() {
  core::PipelineOptions opts;
  opts.session_tau = 0;  // τ = auto: row walk, valley fit, per-user walk
  return opts;
}

TEST(OutOfCore, SpilledGenerationMatchesResidentReport) {
  const workload::WorkloadConfig cfg = SmallConfig();
  const workload::ColumnarWorkload resident =
      workload::WorkloadGenerator(cfg).GenerateColumnar();
  const core::FullReport want =
      core::AnalysisPipeline(ValleyTau()).Run(resident.trace);
  const std::uint64_t want_fp = core::FingerprintReport(want);

  // Small chunks + the minimum buffer budget force several spills at this
  // scale; thread count and analysis staging must not matter either.
  for (const int threads : {1, 3}) {
    const auto dir = SpillDir("mcloud_ooc_report_test");
    workload::SpillConfig spill;
    spill.dir = dir;
    spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
    spill.users_per_chunk = 64;
    workload::WorkloadConfig gen_cfg = cfg;
    gen_cfg.threads = threads;
    const workload::SpillSummary summary =
        workload::WorkloadGenerator(gen_cfg).GenerateToPartitions(spill);
    EXPECT_EQ(summary.records, resident.trace.rows());
    EXPECT_GT(summary.spills, 1u) << "buffer too big to exercise spilling";

    const PartitionedTrace trace = PartitionedTrace::Open(dir);
    EXPECT_EQ(trace.rows(), resident.trace.rows());
    EXPECT_EQ(trace.users(), resident.trace.users());

    core::PipelineOptions opts = ValleyTau();
    opts.threads = threads;
    opts.max_memory_mb = 1;  // minimum staging: many refills per day
    const core::FullReport got =
        core::AnalysisPipeline(opts).RunStreaming(trace);
    EXPECT_EQ(core::FingerprintReport(got), want_fp)
        << "threads=" << threads;
    std::filesystem::remove_all(dir);
  }
}

TEST(OutOfCore, RunStreamingMatchesResidentReport) {
  const workload::WorkloadConfig cfg = SmallConfig();
  const workload::ColumnarWorkload resident =
      workload::WorkloadGenerator(cfg).GenerateColumnar();
  const core::FullReport want =
      core::AnalysisPipeline(core::PipelineOptions{}).Run(resident.trace);
  const std::uint64_t want_fp = core::FingerprintReport(want);

  const auto dir = SpillDir("mcloud_ooc_streaming_test");
  workload::SpillConfig spill;
  spill.dir = dir;
  spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
  spill.users_per_chunk = 64;
  (void)workload::WorkloadGenerator(cfg).GenerateToPartitions(spill);
  const PartitionedTrace trace = PartitionedTrace::Open(dir);

  // With a fixed τ one Scan feeds both streaming passes; the report must
  // be bit-identical to the resident walk at every thread count and
  // staging budget.
  for (const int threads : {1, 3}) {
    core::PipelineOptions opts;
    opts.threads = threads;
    opts.max_memory_mb = 1;  // minimum staging: many refills per day
    core::StageTimings st;
    const core::FullReport got =
        core::AnalysisPipeline(opts).RunStreaming(trace, &st);
    EXPECT_EQ(core::FingerprintReport(got), want_fp)
        << "threads=" << threads;
    EXPECT_GT(st.fits_s, 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(OutOfCore, RunConcurrentMatchesResidentReport) {
  const workload::WorkloadConfig cfg = SmallConfig();
  const workload::ColumnarWorkload resident =
      workload::WorkloadGenerator(cfg).GenerateColumnar();
  const core::FullReport want =
      core::AnalysisPipeline(core::PipelineOptions{}).Run(resident.trace);
  const std::uint64_t want_fp = core::FingerprintReport(want);

  // Analyze-while-generate: generation spills sealed slices straight into
  // the bounded queue; the overlapped walk must still produce the resident
  // report bit-for-bit, independent of threads and slice boundaries.
  for (const int threads : {1, 3}) {
    const auto dir = SpillDir("mcloud_ooc_concurrent_test");
    workload::SpillConfig spill;
    spill.dir = dir;
    spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
    spill.users_per_chunk = 64;
    workload::WorkloadConfig gen_cfg = cfg;
    gen_cfg.threads = threads;

    core::PipelineOptions opts;
    opts.threads = threads;
    core::StageTimings st;
    workload::SpillSummary summary;
    const core::FullReport got =
        core::AnalysisPipeline(opts).RunConcurrent(
            [&](const core::AnalysisPipeline::SliceConsumer& consume) {
              summary = workload::WorkloadGenerator(gen_cfg)
                            .GenerateToPartitions(spill, consume);
            },
            &st);
    EXPECT_EQ(summary.records, resident.trace.rows());
    EXPECT_GT(summary.spills, 1u) << "buffer too big to exercise slicing";
    EXPECT_EQ(core::FingerprintReport(got), want_fp)
        << "threads=" << threads;
    std::filesystem::remove_all(dir);
  }
}

TEST(OutOfCore, ValidatorFingerprintMatchesResident) {
  validate::ValidateOptions opt;
  opt.users = 800;
  opt.seed = 5;
  opt.fleet_flows = 200;

  validate::ValidationRun resident;
  (void)validate::BuildValidationInputs(opt, &resident);

  opt.out_of_core = true;
  opt.max_memory_mb = 64;
  validate::ValidationRun ooc;
  (void)validate::BuildValidationInputs(opt, &ooc);

  // The execution-strategy knobs are not part of the sample identity: an
  // out-of-core run must fingerprint identically to the resident run.
  EXPECT_EQ(validate::ManifestFingerprint(ooc),
            validate::ManifestFingerprint(resident));

  opt.out_of_core = false;
  opt.concurrent = true;
  validate::ValidationRun concurrent;
  (void)validate::BuildValidationInputs(opt, &concurrent);
  EXPECT_EQ(validate::ManifestFingerprint(concurrent),
            validate::ManifestFingerprint(resident));
  EXPECT_GT(concurrent.sketch_bytes, 0u);
  EXPECT_EQ(concurrent.generate_s, 0.0)
      << "generation should overlap analysis in concurrent mode";
}

TEST(OutOfCore, GenerateToPartitionsIsIdenticalAcrossThreadCounts) {
  const auto ReportOf = [](int threads) {
    const auto dir = SpillDir("mcloud_ooc_threads_test");
    workload::WorkloadConfig cfg = SmallConfig();
    cfg.threads = threads;
    workload::SpillConfig spill;
    spill.dir = dir;
    spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
    spill.users_per_chunk = 64;
    (void)workload::WorkloadGenerator(cfg).GenerateToPartitions(spill);
    const core::FullReport report = core::AnalysisPipeline(ValleyTau())
                                        .RunStreaming(PartitionedTrace::Open(dir));
    std::filesystem::remove_all(dir);
    return core::FingerprintReport(report);
  };
  const std::uint64_t fp1 = ReportOf(1);
  EXPECT_EQ(ReportOf(2), fp1);
  EXPECT_EQ(ReportOf(5), fp1);
}

}  // namespace
}  // namespace mcloud
