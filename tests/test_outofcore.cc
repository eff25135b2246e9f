// The out-of-core pipeline's determinism contract: spill-generate +
// RunStreaming, and the slices walked as they seal (RunSlices), must
// produce the bit-identical FullReport of the resident GenerateColumnar +
// Run path, at every thread count and every spill-buffer size, with a
// fixed τ (one walk) and, through RunStreaming, with τ = auto (two walks;
// DESIGN.md, "Out-of-core pipeline").
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "trace/trace_store.h"
#include "util/error.h"
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

/// Every file of `dir` by name, with its bytes.
std::map<std::string, std::string> DirBytes(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

/// Runs `fn` with TMPDIR and the working directory pointed at `dir`, and
/// puts both back afterwards.
template <typename Fn>
void InDirectory(const std::filesystem::path& dir, Fn&& fn) {
  const char* tmpdir = ::getenv("TMPDIR");
  const std::string saved_tmpdir = tmpdir ? tmpdir : "";
  const std::filesystem::path saved_cwd = std::filesystem::current_path();
  ::setenv("TMPDIR", dir.c_str(), 1);
  std::filesystem::current_path(dir);
  fn();
  std::filesystem::current_path(saved_cwd);
  if (tmpdir)
    ::setenv("TMPDIR", saved_tmpdir.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
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

TEST(OutOfCore, RunSlicesMatchesResidentReport) {
  const workload::WorkloadConfig cfg = SmallConfig();
  const workload::ColumnarWorkload resident =
      workload::WorkloadGenerator(cfg).GenerateColumnar();
  const core::FullReport want =
      core::AnalysisPipeline(core::PipelineOptions{}).Run(resident.trace);
  const std::uint64_t want_fp = core::FingerprintReport(want);

  // Each sealed slice is walked on the generator's pool as it seals. The
  // report must be the resident one bit for bit, independent of threads
  // and slice boundaries, whether the slices are written or not.
  for (const int threads : {1, 3}) {
    workload::SpillConfig spill;
    spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
    spill.users_per_chunk = 64;
    workload::WorkloadConfig gen_cfg = cfg;
    gen_cfg.threads = threads;
    core::PipelineOptions opts;
    opts.threads = threads;
    const auto run = [&](workload::SpillSummary& summary) {
      core::StageTimings st;
      const core::FullReport got = core::AnalysisPipeline(opts).RunSlices(
          [&](const SliceVisitor& visit) {
            summary = workload::WorkloadGenerator(gen_cfg)
                          .GenerateToPartitions(spill, visit);
          },
          &st);
      EXPECT_GT(st.scan_s, 0.0);
      return core::FingerprintReport(got);
    };

    // No directory: nothing may be written, not even a temp file.
    const auto scratch = SpillDir("mcloud_ooc_slices_nowrite");
    workload::SpillSummary summary;
    InDirectory(scratch, [&] {
      EXPECT_EQ(run(summary), want_fp) << "no dir, threads=" << threads;
    });
    EXPECT_TRUE(std::filesystem::is_empty(scratch)) << "threads=" << threads;
    EXPECT_EQ(summary.records, resident.trace.rows());
    EXPECT_GT(summary.spills, 1u) << "buffer too big to exercise slicing";
    EXPECT_EQ(summary.run_files, 0u);
    std::filesystem::remove_all(scratch);

    // A directory: the same bytes a plain spill writes.
    const auto plain = SpillDir("mcloud_ooc_slices_plain");
    spill.dir = plain;
    const workload::SpillSummary want_summary =
        workload::WorkloadGenerator(gen_cfg).GenerateToPartitions(spill);
    spill.dir = SpillDir("mcloud_ooc_slices_written");
    EXPECT_EQ(run(summary), want_fp) << "dir, threads=" << threads;
    EXPECT_EQ(summary.spills, want_summary.spills);
    EXPECT_EQ(summary.run_files, want_summary.run_files);
    EXPECT_GT(summary.run_files, 0u);
    EXPECT_EQ(DirBytes(spill.dir), DirBytes(plain)) << "threads=" << threads;
    std::filesystem::remove_all(spill.dir);
    std::filesystem::remove_all(plain);
  }
}

// The check a partitioned trace writer makes runs without one: slices
// whose users do not ascend, within a slice or from one slice to the next,
// are an error.
TEST(OutOfCore, RunSlicesRejectsUsersThatDoNotAscend) {
  RecordColumns rows;
  LogRecord r;
  r.timestamp = kTraceStart + 600;
  r.user_id = 7;
  rows.Append(r);
  r.timestamp += 60;
  rows.Append(r);
  const std::uint64_t three[] = {3};
  const std::uint64_t seven[] = {7};
  const std::uint64_t seven_three[] = {7, 3};
  const std::uint32_t zeros[] = {0, 0};
  const std::uint32_t zero_one[] = {0, 1};
  ThreadPool pool(2);
  const core::AnalysisPipeline pipeline;
  // Whether handing over the slices threw. Two rows are too few for the
  // report tail's fits, so every run throws in the end; only a rejected
  // slice throws while it is handed over.
  const auto rejected = [&](const std::vector<SealedSlice>& slices) {
    bool threw = false;
    EXPECT_THROW((void)pipeline.RunSlices([&](const SliceVisitor& visit) {
      try {
        for (const SealedSlice& slice : slices) visit(slice, pool);
      } catch (const Error&) {
        threw = true;
        throw;
      }
    }),
                 Error);
    return threw;
  };
  EXPECT_FALSE(rejected({{rows, seven, zeros}}));
  EXPECT_TRUE(rejected({{rows, seven, zeros}, {rows, three, zeros}}));
  EXPECT_TRUE(rejected({{rows, seven, zeros}, {rows, seven, zeros}}));
  EXPECT_TRUE(rejected({{rows, seven_three, zero_one}}));
}

TEST(OutOfCore, ValidatorFingerprintSameAtEveryBudget) {
  validate::ValidateOptions opt;
  opt.users = 800;
  opt.seed = 5;
  opt.fleet_flows = 200;

  validate::ValidationRun one_slice;  // the default budget: one slice
  (void)validate::BuildValidationInputs(opt, &one_slice);

  opt.max_memory_mb = 64;
  validate::ValidationRun small;
  (void)validate::BuildValidationInputs(opt, &small);

  // The budget is not part of the sample identity: every budget
  // fingerprints identically.
  EXPECT_EQ(validate::ManifestFingerprint(small),
            validate::ManifestFingerprint(one_slice));
  for (const validate::ValidationRun* run : {&one_slice, &small}) {
    EXPECT_GT(run->sketch_bytes, 0u);
    // The slices are walked inside generation, and each phase counts its
    // own seconds.
    EXPECT_GT(run->generate_s, 0.0);
    EXPECT_GT(run->analyze_s, 0.0);
  }
}

// With a budget above the whole trace the spill path is resident
// generation: one slice whose columns, user table and dense ids are the
// store GenerateColumnar builds, column for column.
TEST(OutOfCore, OneSliceIsTheColumnarStore) {
  for (const int threads : {1, 3}) {
    workload::WorkloadConfig cfg = SmallConfig();
    cfg.threads = threads;
    const TraceStore want =
        workload::WorkloadGenerator(cfg).GenerateColumnar().trace;
    workload::SpillConfig spill;
    spill.max_buffer_bytes = sizeof(LogRecord) * (want.rows() + 1);
    spill.users_per_chunk = 64;
    std::size_t slices = 0;
    workload::GenTimings gt;
    const workload::SpillSummary sum =
        workload::WorkloadGenerator(cfg).GenerateToPartitions(
            spill,
            [&](const SealedSlice& slice, ThreadPool&) {
              ++slices;
              const RecordColumns& r = slice.records;
              ASSERT_EQ(r.size(), want.rows());
              EXPECT_TRUE(std::ranges::equal(r.timestamps, want.timestamps()));
              EXPECT_TRUE(
                  std::ranges::equal(r.device_types, want.device_types()));
              EXPECT_TRUE(std::ranges::equal(r.device_ids, want.device_ids()));
              EXPECT_TRUE(
                  std::ranges::equal(r.request_types, want.request_types()));
              EXPECT_TRUE(std::ranges::equal(r.directions, want.directions()));
              EXPECT_TRUE(
                  std::ranges::equal(r.data_volumes, want.data_volumes()));
              EXPECT_TRUE(std::ranges::equal(r.processing_times,
                                             want.processing_times()));
              EXPECT_TRUE(
                  std::ranges::equal(r.server_times, want.server_times()));
              EXPECT_TRUE(std::ranges::equal(r.avg_rtts, want.avg_rtts()));
              EXPECT_TRUE(std::ranges::equal(r.proxied, want.proxied()));
              EXPECT_TRUE(std::ranges::equal(slice.user_ids, want.user_ids()));
              EXPECT_TRUE(std::ranges::equal(slice.users, want.user_index()));
              for (std::size_t i = 0; i < r.size(); ++i)
                ASSERT_EQ(r.user_ids[i], slice.user_ids[slice.users[i]]);
            },
            &gt);
    EXPECT_EQ(slices, 1u) << "threads=" << threads;
    EXPECT_EQ(sum.spills, 1u);
    EXPECT_EQ(sum.records, want.rows());
    // Every path runs the count pass and the emit pass, and times both.
    EXPECT_GT(gt.plan_s, 0.0);
    EXPECT_GT(gt.emit_s, 0.0);
    EXPECT_EQ(gt.record_buffer_growths, 0u);
  }
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
