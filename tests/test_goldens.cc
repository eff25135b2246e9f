// Absolute goldens: fixed fingerprints of the seed-42 reproduction.
//
// Most determinism tests are relative (threads 1 == threads 4, partitioned
// == resident) and still pass when every path moves together. This table
// pins absolute values instead: the generated trace through every generator
// entry point, the session plans, the bytes of a spilled partitioned trace,
// the §3 FullReport through every AnalysisPipeline entry point at a fixed
// and at the data-derived τ, and the `validate` manifest at every memory
// budget. A refactor keeps every value; an intentional output change updates
// the table and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "scenario/workload_spec.h"
#include "trace/log_io.h"
#include "trace/partitioned_trace.h"
#include "trace/record_columns.h"
#include "validate/validator.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

// Population: 2,000 mobile + 666 PC-only users, seed 42.
constexpr std::size_t kRecords = 770'053;
constexpr std::uint64_t kTraceFingerprint = 0x5665cd260cca60acULL;
// GeneratePlansOnly(): session and op counts, and PlanHash over the plans.
constexpr std::size_t kSessions = 6'924;
constexpr std::size_t kOps = 61'464;
constexpr std::uint64_t kPlanHash = 0x5e26c430ed4515d6ULL;
// GenerateToPartitions(GoldenSpill): spills, run files, and FNV-1a over the
// MANIFEST bytes followed by each run file's bytes in manifest order.
constexpr std::size_t kSpills = 12;
constexpr std::size_t kRunFiles = 96;
constexpr std::uint64_t kSpillBytes = 0xc9affc8183d6433dULL;
// FingerprintReport at τ = 3600 s and at the Fig 3 valley τ (τ = auto).
constexpr std::uint64_t kReportFixedTau = 0xedea12f482750445ULL;
constexpr std::uint64_t kReportValleyTau = 0xc603a15870839f52ULL;
// `mcloudctl validate --users 4000 --seed 42`: manifest and fleet result.
constexpr std::uint64_t kManifest = 0xdf5f260bcc123623ULL;
constexpr std::uint64_t kFleet = 0x40cb9a0803d52fd4ULL;

workload::WorkloadConfig GoldenConfig(int threads) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 2000;
  cfg.population.pc_only_users = 666;
  cfg.seed = 42;
  cfg.threads = threads;
  return cfg;
}

/// Spilling with small chunks and the minimum buffer: many slices, many
/// run files per day.
workload::SpillConfig GoldenSpill(const std::filesystem::path& dir) {
  workload::SpillConfig spill;
  spill.dir = dir;
  spill.max_buffer_bytes = 1;  // clamped to the 64k-record floor
  spill.users_per_chunk = 64;
  return spill;
}

std::filesystem::path FreshDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t FnvByte(std::uint64_t h, unsigned char byte) {
  return (h ^ byte) * kFnvPrime;
}

/// FNV-1a over the 8 little-endian bytes of `v` (TraceFingerprint's fold).
std::uint64_t FnvU64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    h = FnvByte(h, static_cast<unsigned char>(v >> (8 * b)));
  return h;
}

std::uint64_t FnvFile(std::uint64_t h, const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it)
    h = FnvByte(h, static_cast<unsigned char>(*it));
  return h;
}

/// Each plan's user, device, device type, start and op count, then each
/// op's direction, size and offset in microseconds.
std::uint64_t PlanHash(std::span<const workload::SessionPlan> plans) {
  std::uint64_t h = kFnvOffset;
  for (const workload::SessionPlan& p : plans) {
    h = FnvU64(h, p.user_id);
    h = FnvU64(h, p.device_id);
    h = FnvU64(h, static_cast<std::uint64_t>(p.device_type));
    h = FnvU64(h, static_cast<std::uint64_t>(p.start));
    h = FnvU64(h, p.ops.size());
    for (const workload::FileOp& op : p.ops) {
      h = FnvU64(h, static_cast<std::uint64_t>(op.direction));
      h = FnvU64(h, op.size);
      h = FnvU64(h, static_cast<std::uint64_t>(detail::ToMicros(op.offset)));
    }
  }
  return h;
}

/// FNV-1a over a partitioned trace's MANIFEST, then its run files in
/// manifest order.
std::uint64_t SpillBytesHash(const std::filesystem::path& dir) {
  std::uint64_t h = FnvFile(kFnvOffset, dir / "MANIFEST");
  std::ifstream manifest(dir / "MANIFEST");
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream ls(line);
    std::string key, file;
    std::uint64_t seq = 0, rows = 0;
    std::int64_t day = 0;
    if (ls >> key >> seq >> day >> rows >> file && key == "run")
      h = FnvFile(h, dir / file);
  }
  return h;
}

core::AnalysisPipeline Pipeline(int threads, Seconds tau) {
  core::PipelineOptions o;
  o.threads = threads;
  o.session_tau = tau;
  o.max_memory_mb = 1;  // 1 MB staging for the streaming walks
  return core::AnalysisPipeline(o);
}

class Goldens : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    resident_ = new workload::ColumnarWorkload(
        workload::WorkloadGenerator(GoldenConfig(0)).GenerateColumnar());
    records_ = new std::vector<LogRecord>(resident_->trace.ToRecords());
    dir_ = new std::filesystem::path(FreshDir("mcloud_goldens_spill"));
    spill_ = workload::WorkloadGenerator(GoldenConfig(0))
                 .GenerateToPartitions(GoldenSpill(*dir_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete records_;
    delete resident_;
  }

  static workload::ColumnarWorkload* resident_;
  static std::vector<LogRecord>* records_;
  static std::filesystem::path* dir_;
  static workload::SpillSummary spill_;
};

workload::ColumnarWorkload* Goldens::resident_ = nullptr;
std::vector<LogRecord>* Goldens::records_ = nullptr;
std::filesystem::path* Goldens::dir_ = nullptr;
workload::SpillSummary Goldens::spill_;

TEST_F(Goldens, Trace) {
  EXPECT_EQ(resident_->trace.rows(), kRecords);
  EXPECT_EQ(TraceFingerprint(resident_->trace), kTraceFingerprint);
  EXPECT_EQ(PartitionedTrace::Open(*dir_).rows(), kRecords);
}

TEST_F(Goldens, SpillLayout) {
  EXPECT_EQ(spill_.records, kRecords);
  EXPECT_EQ(spill_.spills, kSpills);
  EXPECT_EQ(spill_.run_files, kRunFiles);
  EXPECT_EQ(SpillBytesHash(*dir_), kSpillBytes);
}

TEST(GoldenGenerator, Generate) {
  for (const int threads : {1, 3, 4}) {
    const workload::Workload w =
        workload::WorkloadGenerator(GoldenConfig(threads)).Generate();
    EXPECT_EQ(w.trace.size(), kRecords) << "threads=" << threads;
    EXPECT_EQ(TraceFingerprint(std::span<const LogRecord>(w.trace)),
              kTraceFingerprint)
        << "threads=" << threads;
  }
}

// The fixture generates at the host's thread count. The time-order sort
// splits its rows into one shard per pool thread, and at 3 threads the MSD
// pass's per-shard histograms cover uneven shards; no value may move.
TEST(GoldenGenerator, ColumnarAtThreadCounts) {
  for (const int threads : {1, 3, 4}) {
    const workload::ColumnarWorkload w =
        workload::WorkloadGenerator(GoldenConfig(threads)).GenerateColumnar();
    EXPECT_EQ(w.trace.rows(), kRecords) << "threads=" << threads;
    EXPECT_EQ(TraceFingerprint(w.trace), kTraceFingerprint)
        << "threads=" << threads;
  }
}

TEST(GoldenGenerator, SpillLayoutAtThreadCounts) {
  for (const int threads : {1, 3, 4}) {
    const auto dir = FreshDir("mcloud_goldens_spill_threads");
    const workload::SpillSummary spill =
        workload::WorkloadGenerator(GoldenConfig(threads))
            .GenerateToPartitions(GoldenSpill(dir));
    EXPECT_EQ(spill.records, kRecords) << "threads=" << threads;
    EXPECT_EQ(spill.spills, kSpills) << "threads=" << threads;
    EXPECT_EQ(spill.run_files, kRunFiles) << "threads=" << threads;
    EXPECT_EQ(SpillBytesHash(dir), kSpillBytes) << "threads=" << threads;
    std::filesystem::remove_all(dir);
  }
}

// The plans pass claims 128-user chunks dynamically and joins them in
// chunk order; at 3 threads the workers draw the chunks unevenly.
TEST(GoldenGenerator, PlansOnly) {
  for (const int threads : {1, 3, 4}) {
    const workload::Workload w =
        workload::WorkloadGenerator(GoldenConfig(threads)).GeneratePlansOnly();
    std::size_t ops = 0;
    for (const workload::SessionPlan& p : w.sessions) ops += p.ops.size();
    EXPECT_EQ(w.sessions.size(), kSessions) << "threads=" << threads;
    EXPECT_EQ(ops, kOps) << "threads=" << threads;
    EXPECT_EQ(PlanHash(w.sessions), kPlanHash) << "threads=" << threads;
  }
}

// The block walk splits the users into one range per pool thread, so every
// entry point runs at 2 and 3 threads too (at 3 the ranges are uneven).
TEST_F(Goldens, ReportAtFixedTau) {
  const PartitionedTrace part = PartitionedTrace::Open(*dir_);
  for (const int threads : {1, 2, 3, 4}) {
    const core::AnalysisPipeline p = Pipeline(threads, 3600);
    EXPECT_EQ(core::FingerprintReport(p.Run(*records_)), kReportFixedTau)
        << "Run(span) threads=" << threads;
    EXPECT_EQ(core::FingerprintReport(p.Run(resident_->trace)),
              kReportFixedTau)
        << "Run(store) threads=" << threads;
    EXPECT_EQ(core::FingerprintReport(p.RunStreaming(part)), kReportFixedTau)
        << "RunStreaming threads=" << threads;

    // The slices walked as they seal, written as they go: the report and
    // the spill are both the golden ones.
    const auto dir = FreshDir("mcloud_goldens_slices");
    workload::SpillSummary spill;
    const core::FullReport sliced =
        p.RunSlices([&](const SliceVisitor& visit) {
          spill = workload::WorkloadGenerator(GoldenConfig(threads))
                      .GenerateToPartitions(GoldenSpill(dir), visit);
        });
    EXPECT_EQ(core::FingerprintReport(sliced), kReportFixedTau)
        << "RunSlices threads=" << threads;
    EXPECT_EQ(spill.spills, kSpills) << "RunSlices threads=" << threads;
    EXPECT_EQ(SpillBytesHash(dir), kSpillBytes)
        << "RunSlices threads=" << threads;
    std::filesystem::remove_all(dir);
  }
}

TEST_F(Goldens, ReportAtValleyTau) {
  const PartitionedTrace part = PartitionedTrace::Open(*dir_);
  for (const int threads : {1, 2, 3, 4}) {
    const core::AnalysisPipeline p = Pipeline(threads, 0);
    EXPECT_EQ(core::FingerprintReport(p.Run(*records_)), kReportValleyTau)
        << "Run(span) threads=" << threads;
    EXPECT_EQ(core::FingerprintReport(p.Run(resident_->trace)),
              kReportValleyTau)
        << "Run(store) threads=" << threads;
    EXPECT_EQ(core::FingerprintReport(p.RunStreaming(part)), kReportValleyTau)
        << "RunStreaming threads=" << threads;
  }
}

// The golden spill has more groups than threads. A directory with fewer
// spills than threads cuts each spill into user sub-ranges instead: one
// spill (every thread reads it, each keeping its own users) and two.
TEST(GoldenSpillGroups, FewerGroupsThanThreads) {
  for (const std::size_t spills : {1, 2}) {
    const auto dir = FreshDir("mcloud_goldens_few_spills");
    workload::SpillConfig spill;
    spill.dir = dir;
    spill.max_buffer_bytes =
        sizeof(LogRecord) * (spills == 1 ? kRecords : kRecords * 2 / 3);
    spill.users_per_chunk = 64;
    const workload::SpillSummary sum =
        workload::WorkloadGenerator(GoldenConfig(0))
            .GenerateToPartitions(spill);
    ASSERT_EQ(sum.spills, spills);
    const PartitionedTrace part = PartitionedTrace::Open(dir);
    ASSERT_EQ(part.groups().size(), spills);
    for (const int threads : {1, 2, 3, 4}) {
      const auto fingerprint = [&](Seconds tau) {
        return core::FingerprintReport(
            Pipeline(threads, tau).RunStreaming(part));
      };
      EXPECT_EQ(fingerprint(3600), kReportFixedTau)
          << spills << " spills, threads=" << threads;
      EXPECT_EQ(fingerprint(0), kReportValleyTau)
          << spills << " spills, threads=" << threads;
    }
    std::filesystem::remove_all(dir);
  }
}

/// The options `mcloudctl validate --users 4000 --seed 42` builds.
validate::ValidateOptions ValidateAt4k() {
  validate::ValidateOptions o;
  o.users = 4000;
  o.seed = 42;
  o.threads = 4;
  return o;
}

void ExpectValidateGoldens(const validate::ValidateOptions& o,
                           const char* mode) {
  const validate::ValidationRun run = validate::RunValidation(o);
  EXPECT_EQ(validate::ManifestFingerprint(run), kManifest) << mode;
  EXPECT_EQ(run.fleet_fingerprint, kFleet) << mode;
}

TEST(GoldenManifest, DefaultModel) {
  ExpectValidateGoldens(ValidateAt4k(), "default");
}

TEST(GoldenManifest, Paper2016Spec) {
  // `--spec paper2016 --users 4000`: the population scales down with the
  // spec's PC share, the model comes from the spec.
  const scenario::WorkloadSpec spec = scenario::LoadSpec("paper2016");
  validate::ValidateOptions o = ValidateAt4k();
  o.pc_users = spec.pc_only_users * o.users / spec.mobile_users;
  o.model = spec.model;
  ExpectValidateGoldens(o, "--spec paper2016");
}

// Every budget gives the golden manifest: DefaultModel runs the default
// 2048 MB, one slice at this scale; 64 MB cuts the trace into several.
TEST(GoldenManifest, OutOfCore) {
  validate::ValidateOptions o = ValidateAt4k();
  o.max_memory_mb = 64;
  ExpectValidateGoldens(o, "--max-memory-mb 64");
  // With a spill directory, which does not exist yet: the slices are also
  // written, and nothing else changes.
  const auto dir = FreshDir("mcloud_goldens_validate_spill");
  o.spill_dir = (dir / "nested" / "spill").string();
  ExpectValidateGoldens(o, "--max-memory-mb 64 --spill-dir");
  EXPECT_GT(PartitionedTrace::Open(o.spill_dir).groups().size(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcloud
