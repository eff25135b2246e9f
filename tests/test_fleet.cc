// Tests for the sharded parallel fleet executor: the determinism contract
// (output byte-identical at every thread count, because the shard count —
// not the thread count — is the unit of decomposition, pinned by absolute
// fingerprints at threads 1-4), the single-shard passthrough, and the
// canonical order of the merged result.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cloud/fleet.h"
#include "cloud/storage_service.h"
#include "util/rng.h"
#include "util/timeutil.h"
#include "util/units.h"
#include "workload/session_plan.h"

namespace mcloud::cloud {
namespace {

/// Fixed mixed-direction fleet, spread over enough users that every shard
/// of an 8-way split is populated. Mirrors test_fault's ServicePlans but
/// with its own shape so the two fixtures drift independently.
std::vector<workload::SessionPlan> FleetFixture(int sessions = 240,
                                                int users = 60) {
  std::vector<workload::SessionPlan> plans;
  Rng rng(7117);
  for (int i = 0; i < sessions; ++i) {
    workload::SessionPlan s;
    s.user_id = static_cast<std::uint64_t>(i % users + 1);
    s.device_id = s.user_id + 500;
    s.device_type = (i % 3 == 0)   ? DeviceType::kIos
                    : (i % 8 == 0) ? DeviceType::kPc
                                   : DeviceType::kAndroid;
    s.start = kTraceStart + static_cast<UnixSeconds>((i % 50) * 60);
    workload::FileOp op;
    op.direction = (i % 2 == 0) ? Direction::kStore : Direction::kRetrieve;
    op.size = FromMB(0.2 + 2.5 * rng.Uniform());
    s.ops.push_back(op);
    if (i % 6 == 0) {
      workload::FileOp op2;
      op2.direction = Direction::kStore;
      op2.size = FromMB(0.5 + 1.5 * rng.Uniform());
      op2.offset = 15.0;
      s.ops.push_back(op2);
    }
    plans.push_back(s);
  }
  return plans;
}

/// A fleet whose heaviest shards by planned file operations are 0 and 1:
/// their users' sessions carry five ops each, every other session one. A
/// schedule that runs the heaviest shards first claims them in an order
/// other than the index order.
std::vector<workload::SessionPlan> HeavyLowShardsFixture() {
  std::vector<workload::SessionPlan> plans;
  Rng rng(4242);
  for (int i = 0; i < 160; ++i) {
    workload::SessionPlan s;
    s.user_id = static_cast<std::uint64_t>(i % 40 + 1);
    s.device_id = s.user_id + 900;
    s.device_type = (i % 4 == 0) ? DeviceType::kIos : DeviceType::kAndroid;
    s.start = kTraceStart + static_cast<UnixSeconds>((i % 37) * 45);
    const int ops = ShardOf(s.user_id, 8) <= 1 ? 5 : 1;
    for (int k = 0; k < ops; ++k) {
      workload::FileOp op;
      op.direction = (k + i) % 2 == 0 ? Direction::kStore
                                       : Direction::kRetrieve;
      op.size = FromMB(0.3 + 1.5 * rng.Uniform());
      op.offset = 20.0 * k;
      s.ops.push_back(op);
    }
    plans.push_back(s);
  }
  return plans;
}

/// The fault-mode configuration the fault goldens run.
FleetConfig FaultFleetConfig() {
  FleetConfig cfg;
  cfg.shards = 8;
  cfg.service.faults.frontend_fail_rate = 0.05;
  cfg.service.faults.degraded_rate = 0.10;
  cfg.service.faults.loss_burst_rate = 0.05;
  return cfg;
}

TEST(ShardOfFn, DeterministicAndInRange) {
  for (std::uint64_t uid = 1; uid <= 1000; ++uid) {
    const std::uint32_t s = ShardOf(uid, 8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, ShardOf(uid, 8));  // pure function of (uid, shards)
  }
  // The hash decorrelates from sequential id assignment: all 8 shards of a
  // 60-user population are populated.
  std::vector<int> counts(8, 0);
  for (std::uint64_t uid = 1; uid <= 60; ++uid) ++counts[ShardOf(uid, 8)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(FleetGolden, ByteIdenticalAcrossThreadCounts) {
  const auto plans = FleetFixture();
  std::uint64_t first_fp = 0;
  std::vector<ShardTelemetry> first_shards;
  for (const int threads : {1, 2, 3, 4, 0 /* hardware */}) {
    FleetConfig cfg;
    cfg.shards = 8;
    cfg.threads = threads;
    const FleetResult fleet = ExecuteFleet(cfg, plans);
    const std::uint64_t fp = FingerprintServiceResult(fleet.result);
    if (first_fp == 0) {
      first_fp = fp;
      first_shards = fleet.shards;
      continue;
    }
    EXPECT_EQ(fp, first_fp) << "threads=" << threads;
    // Telemetry (minus wall clock) is part of the deterministic surface.
    ASSERT_EQ(fleet.shards.size(), first_shards.size());
    for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
      EXPECT_EQ(fleet.shards[s].sessions, first_shards[s].sessions);
      EXPECT_EQ(fleet.shards[s].queue.scheduled,
                first_shards[s].queue.scheduled);
      EXPECT_EQ(fleet.shards[s].queue.executed,
                first_shards[s].queue.executed);
      EXPECT_EQ(fleet.shards[s].queue.cancelled,
                first_shards[s].queue.cancelled);
      EXPECT_EQ(fleet.shards[s].queue.peak_pending,
                first_shards[s].queue.peak_pending);
    }
  }
  ASSERT_NE(first_fp, 0u);
}

TEST(FleetGolden, FaultModeByteIdenticalAcrossThreadCounts) {
  // Per-shard fault schedules derive from shard-salted seeds, so the fault
  // timeline is part of the deterministic surface too. The value is
  // absolute: every thread count must reproduce it, not only agree.
  const auto plans = FleetFixture();
  FleetConfig cfg = FaultFleetConfig();
  ASSERT_TRUE(cfg.service.faults.Any());
  for (const int threads : {1, 2, 3, 4}) {
    cfg.threads = threads;
    const FleetResult fleet = ExecuteFleet(cfg, plans);
    EXPECT_EQ(FingerprintServiceResult(fleet.result), 0xb951364d02a4b104ULL)
        << "threads=" << threads;
    EXPECT_GT(fleet.result.faults.chunk_attempts, 0u);
  }
}

TEST(FleetGolden, HeaviestShardsFirstByteIdenticalAcrossThreadCounts) {
  const auto plans = HeavyLowShardsFixture();
  // The fixture's premise: shards 0 and 1 plan the most file operations.
  std::vector<std::size_t> ops(8, 0);
  for (const workload::SessionPlan& s : plans)
    ops[ShardOf(s.user_id, 8)] += s.ops.size();
  for (std::size_t s = 2; s < ops.size(); ++s) {
    EXPECT_GT(ops[0], ops[s]) << "shard " << s;
    EXPECT_GT(ops[1], ops[s]) << "shard " << s;
  }
  FleetConfig cfg = FaultFleetConfig();
  for (const int threads : {1, 2, 3, 4}) {
    cfg.threads = threads;
    const FleetResult fleet = ExecuteFleet(cfg, plans);
    EXPECT_EQ(FingerprintServiceResult(fleet.result), 0xe1424b63dd5888caULL)
        << "threads=" << threads;
    ASSERT_EQ(fleet.shards.size(), 8u);
    for (std::uint32_t s = 0; s < 8; ++s)
      EXPECT_EQ(fleet.shards[s].shard, s);  // results land by shard index
  }
}

TEST(FleetPassthrough, SingleShardMatchesPlainExecute) {
  const auto plans = FleetFixture();
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.threads = 4;  // must not matter: one shard is inherently serial
  const FleetResult fleet = ExecuteFleet(cfg, plans);

  StorageService service(cfg.service);
  const ServiceResult plain = service.Execute(plans);
  EXPECT_EQ(FingerprintServiceResult(fleet.result),
            FingerprintServiceResult(plain));
  ASSERT_EQ(fleet.shards.size(), 1u);
  EXPECT_EQ(fleet.shards[0].sessions, plans.size());
  EXPECT_EQ(fleet.shards[0].queue.executed, plain.queue.executed);
}

TEST(FleetMerge, CanonicalOrderInvariants) {
  const auto plans = FleetFixture();
  FleetConfig cfg;
  cfg.shards = 8;
  const FleetResult fleet = ExecuteFleet(cfg, plans);
  const ServiceResult& r = fleet.result;

  // Every session came back, in canonical (start-stable) order.
  ASSERT_EQ(r.session_outcomes.size(), plans.size());
  for (std::size_t i = 1; i < r.session_outcomes.size(); ++i)
    EXPECT_LE(r.session_outcomes[i - 1].start, r.session_outcomes[i].start);
  EXPECT_EQ(r.faults.sessions, plans.size());

  // Chunk groups follow the same canonical order, with session_seq rewritten
  // to the global rank.
  for (std::size_t i = 1; i < r.chunk_perf.size(); ++i)
    EXPECT_LE(r.chunk_perf[i - 1].session_seq, r.chunk_perf[i].session_seq);
  if (!r.chunk_perf.empty()) {
    EXPECT_LT(r.chunk_perf.back().session_seq, r.session_outcomes.size());
  }

  // Logs and retrievals are globally time-sorted.
  EXPECT_TRUE(std::is_sorted(r.logs.begin(), r.logs.end(),
                             [](const LogRecord& a, const LogRecord& b) {
                               return a.timestamp < b.timestamp;
                             }));
  EXPECT_TRUE(std::is_sorted(r.retrievals.begin(), r.retrievals.end(),
                             [](const RetrievalEvent& a,
                                const RetrievalEvent& b) {
                               return a.at < b.at;
                             }));

  // Aggregates survived the merge.
  std::uint64_t fe_file_ops = 0;
  for (const FrontEndStats& fe : r.front_ends)
    fe_file_ops += fe.file_operations;
  EXPECT_GT(fe_file_ops, 0u);
  EXPECT_GT(r.flows, 0u);
  EXPECT_EQ(r.queue.executed, r.queue.scheduled - r.queue.cancelled);

  // Shard telemetry covers the whole fleet exactly once.
  std::uint64_t shard_sessions = 0;
  for (const ShardTelemetry& t : fleet.shards) shard_sessions += t.sessions;
  EXPECT_EQ(shard_sessions, plans.size());
}

TEST(FleetMerge, EmptyFleetIsWellFormed) {
  FleetConfig cfg;
  cfg.shards = 8;
  const FleetResult fleet = ExecuteFleet(cfg, {});
  EXPECT_TRUE(fleet.result.logs.empty());
  EXPECT_TRUE(fleet.result.session_outcomes.empty());
  EXPECT_EQ(fleet.result.front_ends.size(), cfg.service.front_ends);
  EXPECT_EQ(fleet.shards.size(), cfg.shards);
}

}  // namespace
}  // namespace mcloud::cloud
