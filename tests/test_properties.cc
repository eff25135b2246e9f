// Cross-module property tests: randomized round-trips and invariants that
// no single-module suite owns.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/file_size_model.h"
#include "analysis/sessionizer.h"
#include "cloud/storage_service.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "trace/anonymizer.h"
#include "trace/log_io.h"
#include "validate/gof.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

LogRecord RandomRecord(Rng& rng) {
  LogRecord r;
  r.timestamp = kTraceStart + static_cast<UnixSeconds>(rng.UniformInt(
                    static_cast<std::uint64_t>(kWeek)));
  r.device_type = static_cast<DeviceType>(rng.UniformInt(3));
  r.device_id = rng.NextU64() >> 1;
  r.user_id = rng.NextU64() >> 1;
  r.request_type = static_cast<RequestType>(rng.UniformInt(2));
  r.direction = static_cast<Direction>(rng.UniformInt(2));
  r.data_volume = r.request_type == RequestType::kChunkRequest
                      ? rng.UniformInt(kChunkSize) + 1
                      : 0;
  r.processing_time = rng.Uniform(0.0, 100.0);
  r.server_time = rng.Uniform(0.0, 2.0);
  r.avg_rtt = rng.Uniform(0.001, 5.0);
  r.proxied = rng.Bernoulli(0.1);
  return r;
}

class RoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripSweep, CsvAndBinaryPreserveRandomRecords) {
  Rng rng(GetParam());
  std::vector<LogRecord> records;
  for (int i = 0; i < 500; ++i) records.push_back(RandomRecord(rng));

  const auto dir = std::filesystem::temp_directory_path();
  const auto csv = dir / ("prop_" + std::to_string(GetParam()) + ".csv");
  const auto bin = dir / ("prop_" + std::to_string(GetParam()) + ".bin");
  WriteCsvTrace(csv, records);
  WriteBinaryTrace(bin, records);
  const auto from_csv = ReadCsvTrace(csv);
  const auto from_bin = ReadBinaryTrace(bin);
  std::filesystem::remove(csv);
  std::filesystem::remove(bin);

  ASSERT_EQ(from_csv.size(), records.size());
  ASSERT_EQ(from_bin.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Integral fields must round-trip exactly through both formats.
    EXPECT_EQ(from_csv[i].timestamp, records[i].timestamp);
    EXPECT_EQ(from_csv[i].user_id, records[i].user_id);
    EXPECT_EQ(from_csv[i].device_id, records[i].device_id);
    EXPECT_EQ(from_csv[i].data_volume, records[i].data_volume);
    EXPECT_EQ(from_csv[i].proxied, records[i].proxied);
    // Times round to microseconds in both formats.
    EXPECT_NEAR(from_csv[i].processing_time, records[i].processing_time,
                1e-6);
    EXPECT_NEAR(from_bin[i].processing_time, records[i].processing_time,
                1e-6);
    EXPECT_EQ(from_bin[i].user_id, records[i].user_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 99ULL));

TEST(Properties, AnonymizationPreservesEveryAnalysisInput) {
  // Anonymizing a trace must not change any session-level statistic: the
  // sessionizer only cares about identity *equality*, which the keyed MD5
  // mapping preserves.
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 400;
  cfg.population.pc_only_users = 100;
  const auto w = workload::WorkloadGenerator(cfg).Generate();
  auto anonymized = Anonymizer("prop-key").Apply(w.trace);
  std::sort(anonymized.begin(), anonymized.end(), LogRecordTimeOrder);

  const auto before = analysis::Sessionizer().Sessionize(w.trace);
  const auto after = analysis::Sessionizer().Sessionize(anonymized);
  ASSERT_EQ(before.size(), after.size());

  // Compare the multiset of per-session operation counts. (Chunk/volume
  // attribution can legitimately differ: ID remapping permutes the
  // tie-break order of same-second records, and a chunk logged in the same
  // second as a session-opening operation may move across the boundary.)
  const auto summarize = [](const std::vector<analysis::Session>& sessions) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    out.reserve(sessions.size());
    for (const auto& s : sessions)
      out.emplace_back(s.store_ops, s.retrieve_ops);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(summarize(before), summarize(after));
  // Total transferred volume is conserved regardless of attribution.
  Bytes vol_before = 0;
  Bytes vol_after = 0;
  for (const auto& s : before) vol_before += s.Volume();
  for (const auto& s : after) vol_after += s.Volume();
  EXPECT_EQ(vol_before, vol_after);
}

TEST(Properties, SessionizerPartitionsEveryRecord) {
  // Each trace record lands in exactly one session: op and chunk counts
  // summed over sessions equal the trace's counts.
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 300;
  cfg.population.pc_only_users = 0;
  const auto w = workload::WorkloadGenerator(cfg).Generate();
  const auto sessions = analysis::Sessionizer().Sessionize(w.trace);

  std::size_t ops = 0;
  std::size_t chunks = 0;
  Bytes volume = 0;
  for (const auto& s : sessions) {
    ops += s.FileOps();
    chunks += s.chunk_requests;
    volume += s.Volume();
  }
  std::size_t trace_ops = 0;
  std::size_t trace_chunks = 0;
  Bytes trace_volume = 0;
  for (const auto& r : w.trace) {
    if (r.request_type == RequestType::kFileOperation) {
      ++trace_ops;
    } else {
      ++trace_chunks;
      trace_volume += r.data_volume;
    }
  }
  EXPECT_EQ(ops, trace_ops);
  EXPECT_EQ(chunks, trace_chunks);
  EXPECT_EQ(volume, trace_volume);
}

TEST(Properties, UploadOnlyUsersNeverRetrieveAnywhere) {
  // The Table 3 invariant behind Fig 9: upload-only-intent users must have
  // zero retrieval records on every device, including their PCs.
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 1200;
  cfg.population.pc_only_users = 300;
  const auto w = workload::WorkloadGenerator(cfg).Generate();

  std::unordered_map<std::uint64_t, const workload::UserProfile*> profiles;
  for (const auto& u : w.users) profiles[u.user_id] = &u;
  for (const auto& r : w.trace) {
    const auto* p = profiles.at(r.user_id);
    if (p->usage_class == paper::UserClass::kUploadOnly) {
      EXPECT_EQ(r.direction, Direction::kStore)
          << "upload-only user " << r.user_id << " retrieved";
    }
    if (p->usage_class == paper::UserClass::kDownloadOnly) {
      EXPECT_EQ(r.direction, Direction::kRetrieve)
          << "download-only user " << r.user_id << " stored";
    }
  }
}

TEST(Properties, OwnUploadRetrievalMatchesStoredContent) {
  // A user who stores a file and later retrieves only their own content
  // pulls exactly the bytes they stored (content identity, not resampling).
  cloud::ServiceConfig cfg;
  cfg.shared_content_prob = 0.0;
  cloud::StorageService service(cfg);

  std::vector<workload::SessionPlan> plans;
  workload::SessionPlan store;
  store.user_id = 1;
  store.device_id = 1;
  store.device_type = DeviceType::kAndroid;
  store.start = kTraceStart;
  workload::FileOp up;
  up.direction = Direction::kStore;
  up.size = 3 * kMiB;
  store.ops.push_back(up);
  plans.push_back(store);

  workload::SessionPlan retrieve = store;
  retrieve.start = kTraceStart + 7200;
  retrieve.ops[0].direction = Direction::kRetrieve;
  plans.push_back(retrieve);

  const auto result = service.Execute(plans);
  Bytes stored = 0;
  Bytes retrieved = 0;
  for (const auto& r : result.logs) {
    if (r.request_type != RequestType::kChunkRequest) continue;
    (r.direction == Direction::kStore ? stored : retrieved) += r.data_volume;
  }
  EXPECT_EQ(stored, 3 * kMiB);
  EXPECT_EQ(retrieved, stored);
  ASSERT_EQ(result.retrievals.size(), 1u);
  EXPECT_FALSE(result.retrievals[0].shared);
}

TEST(Properties, SmallSampleFileSizeFitSkipsChiSquare) {
  Rng rng(5);
  LogBins sketch = analysis::MakeSizeSketch();
  TDigest digest;
  for (int i = 0; i < 120; ++i) {
    const double size = rng.ExponentialMean(1.5);
    sketch.Add(size);
    digest.Add(size);
  }
  const auto model = analysis::FitFileSizeModel(sketch, digest);
  EXPECT_FALSE(model.chi_square_valid);
  EXPECT_GE(model.selection.selected_n, 1u);
  EXPECT_FALSE(model.grid_mb.empty());
}

TEST(Properties, KsDistanceMetricInvariants) {
  // The two-sample KS distance behind the validation layer's Table 2 gates
  // is a metric on empirical distributions: symmetric, bounded in [0, 1],
  // and exactly zero on identical samples — on every random sample shape.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const std::size_t na = 1 + rng.UniformInt(200);
    const std::size_t nb = 1 + rng.UniformInt(200);
    std::vector<double> a(na);
    std::vector<double> b(nb);
    // Mix of scales (heavy-tailed like the file sizes) and occasional ties.
    for (auto& x : a)
      x = rng.Bernoulli(0.2) ? std::floor(rng.Uniform(0.0, 5.0))
                             : rng.ExponentialMean(3.0);
    for (auto& x : b)
      x = rng.Bernoulli(0.2) ? std::floor(rng.Uniform(0.0, 5.0))
                             : rng.ExponentialMean(1.0 + rng.Uniform());

    const auto ab = validate::KsTwoSample(a, b);
    const auto ba = validate::KsTwoSample(b, a);
    EXPECT_DOUBLE_EQ(ab.statistic, ba.statistic) << "seed " << seed;
    EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12) << "seed " << seed;
    EXPECT_GE(ab.statistic, 0.0) << "seed " << seed;
    EXPECT_LE(ab.statistic, 1.0) << "seed " << seed;
    EXPECT_GE(ab.p_value, 0.0) << "seed " << seed;
    EXPECT_LE(ab.p_value, 1.0) << "seed " << seed;

    const auto aa = validate::KsTwoSample(a, a);
    EXPECT_DOUBLE_EQ(aa.statistic, 0.0) << "seed " << seed;
  }
}

TEST(Properties, DeterminismAcrossWholeStack) {
  // Same seed ⇒ byte-identical findings text: the whole stack (generator,
  // sessionizer, EM, SE fit) is deterministic.
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 500;
  cfg.population.pc_only_users = 100;
  cfg.seed = 77;
  const auto a = core::AnalysisPipeline().Run(
      workload::WorkloadGenerator(cfg).Generate().trace);
  const auto b = core::AnalysisPipeline().Run(
      workload::WorkloadGenerator(cfg).Generate().trace);
  EXPECT_EQ(core::RenderFindings(a), core::RenderFindings(b));
}

}  // namespace
}  // namespace mcloud
