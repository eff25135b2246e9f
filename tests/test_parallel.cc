// Concurrency utilities and the determinism contract of the parallel
// execution layer: the workload generator and the analysis pipeline must
// produce byte-identical output for every thread count (DESIGN.md,
// "Concurrency model").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "util/merge.h"
#include "util/parallel.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr std::size_t kCount = 997;  // prime: not a multiple of the pool
  std::vector<std::atomic<int>> hits(kCount);
  pool.Run(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  pool.Run(seen.size(),
           [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.Run(8,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool must survive a failed batch.
  std::atomic<int> count{0};
  pool.Run(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, ResolveThreadsDefaultsToHardware) {
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_EQ(ResolveThreads(3), 3);
  EXPECT_GE(ResolveThreads(-2), 1);
}

TEST(ParallelForShards, ShardsAreContiguousDisjointAndComplete) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 11;
  std::vector<int> covered(kN, 0);
  std::atomic<int> shards{0};
  ParallelForShards(pool, kN,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      EXPECT_LT(begin, end);
                      for (std::size_t i = begin; i < end; ++i) ++covered[i];
                      shards.fetch_add(1);
                    });
  EXPECT_EQ(shards.load(), ShardCount(pool, kN));
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(covered[i], 1);
  // Never more shards than elements.
  EXPECT_EQ(ShardCount(pool, 2), 2);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadPool pool(4);
  const auto squares = ParallelMap<std::uint64_t>(
      pool, 100, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

// --------------------------------------------------------- MergeSortedRuns

TEST(MergeSortedRuns, MatchesStableSortOfConcatenation) {
  // Keys collide on purpose: the merge must order ties by run index, which
  // is exactly what a stable sort of the concatenated runs produces when
  // each run is itself stably sorted.
  struct Item {
    int key;
    int origin;  // run index * 100 + position: identifies the element
  };
  std::vector<std::vector<Item>> runs(4);
  std::vector<Item> all;
  std::uint64_t x = 12345;
  const auto next = [&x] {  // small deterministic LCG
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((x >> 33) % 7);
  };
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 50; ++i)
      runs[r].push_back({next(), r * 100 + i});
    std::stable_sort(runs[r].begin(), runs[r].end(),
                     [](const Item& a, const Item& b) { return a.key < b.key; });
    all.insert(all.end(), runs[r].begin(), runs[r].end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });

  const auto merged = MergeSortedRuns(
      std::move(runs), [](const Item& a, const Item& b) { return a.key < b.key; });
  ASSERT_EQ(merged.size(), all.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].key, all[i].key);
    EXPECT_EQ(merged[i].origin, all[i].origin) << "at " << i;
  }
}

TEST(MergeSortedRuns, HandlesEmptyAndSingleRuns) {
  std::vector<std::vector<int>> runs;
  EXPECT_TRUE(MergeSortedRuns(std::move(runs), std::less<int>{}).empty());

  std::vector<std::vector<int>> one;
  one.push_back({1, 2, 3});
  one.push_back({});
  const auto merged = MergeSortedRuns(std::move(one), std::less<int>{});
  EXPECT_EQ(merged, (std::vector<int>{1, 2, 3}));
}

// The sink-based core is what the out-of-core spill writer and the
// columnar builder feed from, so its edge cases get their own coverage
// (the vector overload short-circuits single runs and never exercises
// some of these paths).

TEST(MergeSortedRunsInto, ZeroRunsNeverCallsSink) {
  std::vector<std::vector<int>> runs;
  std::size_t calls = 0;
  MergeSortedRunsInto(std::move(runs), std::less<int>{},
                      [&calls](int&&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(MergeSortedRunsInto, AllEmptyRunsNeverCallSink) {
  std::vector<std::vector<int>> runs(5);
  std::size_t calls = 0;
  MergeSortedRunsInto(std::move(runs), std::less<int>{},
                      [&calls](int&&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(MergeSortedRunsInto, SingleRunStreamsInOrder) {
  std::vector<std::vector<int>> runs;
  runs.push_back({1, 1, 2, 3, 5, 8});
  std::vector<int> out;
  MergeSortedRunsInto(std::move(runs), std::less<int>{},
                      [&out](int&& v) { out.push_back(v); });
  EXPECT_EQ(out, (std::vector<int>{1, 1, 2, 3, 5, 8}));
}

TEST(MergeSortedRunsInto, DuplicateKeysKeepLowerRunFirst) {
  // Every element of every run has the same key: the merged order must be
  // run 0's elements in order, then run 1's, then run 2's — the exact
  // tie-break the out-of-core day merge relies on for determinism.
  struct Item {
    int key;
    int origin;
  };
  std::vector<std::vector<Item>> runs(3);
  for (int r = 0; r < 3; ++r)
    for (int i = 0; i < 4; ++i) runs[r].push_back({7, r * 10 + i});
  std::vector<int> origins;
  MergeSortedRunsInto(
      std::move(runs),
      [](const Item& a, const Item& b) { return a.key < b.key; },
      [&origins](Item&& v) { origins.push_back(v.origin); });
  EXPECT_EQ(origins, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13, 20, 21,
                                       22, 23}));
}

// ------------------------------------------------------- Generator goldens

workload::Workload Generate(std::size_t mobile, std::size_t pc, int threads,
                            std::uint64_t seed = 7) {
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = mobile;
  cfg.population.pc_only_users = pc;
  cfg.seed = seed;
  cfg.threads = threads;
  return workload::WorkloadGenerator(cfg).Generate();
}

/// FNV-1a over the full record contents — the golden fingerprint of a trace.
std::uint64_t TraceHash(const std::vector<LogRecord>& trace) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const LogRecord& r : trace) {
    mix(static_cast<std::uint64_t>(r.timestamp));
    mix(static_cast<std::uint64_t>(r.device_type));
    mix(r.device_id);
    mix(r.user_id);
    mix(static_cast<std::uint64_t>(r.request_type));
    mix(static_cast<std::uint64_t>(r.direction));
    mix(r.data_volume);
    mix(static_cast<std::uint64_t>(r.processing_time * 1e6));
    mix(static_cast<std::uint64_t>(r.server_time * 1e6));
    mix(static_cast<std::uint64_t>(r.avg_rtt * 1e6));
    mix(static_cast<std::uint64_t>(r.proxied));
  }
  return h;
}

TEST(Determinism, TraceIsIdenticalAcrossThreadCounts) {
  const auto serial = Generate(600, 200, 1);
  const auto four = Generate(600, 200, 4);
  const auto hw = Generate(600, 200, 0);

  ASSERT_FALSE(serial.trace.empty());
  // Full byte-for-byte equality, plus the golden hash for a readable failure.
  EXPECT_EQ(TraceHash(four.trace), TraceHash(serial.trace));
  EXPECT_EQ(TraceHash(hw.trace), TraceHash(serial.trace));
  EXPECT_TRUE(four.trace == serial.trace);
  EXPECT_TRUE(hw.trace == serial.trace);
  EXPECT_EQ(four.users.size(), serial.users.size());
}

TEST(Determinism, RepeatedRunsAgree) {
  const auto a = Generate(300, 100, 4);
  const auto b = Generate(300, 100, 4);
  EXPECT_TRUE(a.trace == b.trace);
  EXPECT_EQ(TraceHash(a.trace), TraceHash(b.trace));
}

TEST(Determinism, DifferentSeedsDiffer) {
  const auto a = Generate(200, 60, 2, 7);
  const auto b = Generate(200, 60, 2, 8);
  EXPECT_NE(TraceHash(a.trace), TraceHash(b.trace));
}

TEST(Determinism, AddingAUserLeavesExistingUsersUnchanged) {
  // Per-user RNG streams are keyed by (root seed, user id), not by draw
  // order, so growing the population must not perturb anyone who was
  // already in it. New pc-only users append at the end of the id range.
  const auto base = Generate(400, 120, 2);
  const auto grown = Generate(400, 121, 2);

  ASSERT_EQ(base.users.size(), 520u);
  ASSERT_EQ(grown.users.size(), 521u);
  const std::uint64_t max_base_id = 520;

  // Profiles (including assigned device ids) are identical.
  for (std::size_t i = 0; i < base.users.size(); ++i) {
    const auto& u = base.users[i];
    const auto& v = grown.users[i];
    EXPECT_EQ(u.user_id, v.user_id);
    ASSERT_EQ(u.mobile_devices.size(), v.mobile_devices.size());
    for (std::size_t d = 0; d < u.mobile_devices.size(); ++d) {
      EXPECT_EQ(u.mobile_devices[d].device_id, v.mobile_devices[d].device_id);
      EXPECT_EQ(u.mobile_devices[d].type, v.mobile_devices[d].type);
    }
  }

  // The grown trace, filtered down to the original users, is the base trace.
  std::vector<LogRecord> grown_existing;
  for (const LogRecord& r : grown.trace) {
    if (r.user_id <= max_base_id) grown_existing.push_back(r);
  }
  EXPECT_TRUE(grown_existing == base.trace);
}

// ------------------------------------------------------ Pipeline threading

TEST(Determinism, PipelineReportIsIdenticalAcrossThreadCounts) {
  const auto w = Generate(500, 150, 2);

  core::PipelineOptions serial_opts;
  serial_opts.threads = 1;
  core::PipelineOptions parallel_opts;
  parallel_opts.threads = 4;

  const auto a = core::AnalysisPipeline(serial_opts).Run(w.trace);
  const auto b = core::AnalysisPipeline(parallel_opts).Run(w.trace);

  // The rendered findings format every report field; string equality is a
  // whole-report comparison. Spot-check raw doubles for exactness too.
  EXPECT_EQ(core::RenderFindings(a), core::RenderFindings(b));
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.mobile_users, b.mobile_users);
  EXPECT_EQ(a.interval_model.valley_tau, b.interval_model.valley_tau);
  EXPECT_EQ(a.session_split.StoreShare(), b.session_split.StoreShare());
  EXPECT_EQ(a.store_activity.se.c, b.store_activity.se.c);
}

}  // namespace
}  // namespace mcloud
