// Concurrency utilities and the determinism contract of the parallel
// execution layer: the workload generator and the analysis pipeline must
// produce byte-identical output for every thread count (DESIGN.md,
// "Concurrency model").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
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

/// A merge input element: `origin` identifies it (run * 1000 + position).
struct Item {
  int key;
  int origin;
};

bool KeyLess(const Item& a, const Item& b) { return a.key < b.key; }

/// Runs with the given keys (each run sorted on entry), tagged by origin.
std::vector<std::vector<Item>> MakeRuns(
    const std::vector<std::vector<int>>& keys) {
  std::vector<std::vector<Item>> runs(keys.size());
  for (std::size_t r = 0; r < keys.size(); ++r) {
    for (std::size_t i = 0; i < keys[r].size(); ++i)
      runs[r].push_back({keys[r][i], static_cast<int>(r * 1000 + i)});
    EXPECT_TRUE(std::is_sorted(runs[r].begin(), runs[r].end(), KeyLess));
  }
  return runs;
}

/// MergeSortedRuns with a null pool and with pools of 1-4 threads must
/// give std::stable_sort of the runs' concatenation: the same keys, and
/// equal keys ordered by run, then by position.
void ExpectMergeIsStableSort(const std::vector<std::vector<int>>& keys) {
  const std::vector<std::vector<Item>> runs = MakeRuns(keys);
  std::vector<Item> want;
  for (const auto& run : runs) want.insert(want.end(), run.begin(), run.end());
  std::stable_sort(want.begin(), want.end(), KeyLess);
  for (int threads = 0; threads <= 4; ++threads) {
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    auto input = runs;
    const std::vector<Item> got = MergeSortedRuns(
        std::move(input), KeyLess, pool ? &*pool : nullptr);
    ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, want[i].key) << "threads=" << threads
                                         << " at " << i;
      ASSERT_EQ(got[i].origin, want[i].origin) << "threads=" << threads
                                               << " at " << i;
    }
  }
}

TEST(MergeSortedRuns, MatchesStableSortOfConcatenation) {
  // Keys collide on purpose: the merge must order ties by run index, which
  // is exactly what a stable sort of the concatenated runs produces when
  // each run is itself stably sorted.
  std::vector<std::vector<int>> keys(4);
  std::uint64_t x = 12345;
  const auto next = [&x] {  // small deterministic LCG
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((x >> 33) % 7);
  };
  for (auto& run : keys) {
    for (int i = 0; i < 50; ++i) run.push_back(next());
    std::sort(run.begin(), run.end());
  }
  ExpectMergeIsStableSort(keys);
}

TEST(MergeSortedRuns, KeysCollideAcrossRunsAtTheSplitters) {
  // The pooled merge takes its splitters from the largest run, the element
  // ShardBounds puts first in each part. Here every such element has equal
  // neighbours just before it in the largest run, and the runs on both
  // sides of it hold its key too, so a cut anywhere but the key's
  // lower_bound in every run moves some equal keys ahead of a lower run's.
  constexpr std::size_t kLargest = 400;
  constexpr std::size_t kLargestRun = 2;
  std::vector<std::vector<int>> keys(4);
  for (std::size_t i = 0; i < kLargest; ++i)
    keys[kLargestRun].push_back(static_cast<int>((i + 5) / 10));
  for (std::size_t parts = 2; parts <= 4; ++parts) {
    for (std::size_t p = 1; p < parts; ++p) {
      const std::size_t at = ShardBounds(kLargest, parts, p).begin;
      ASSERT_EQ(keys[kLargestRun][at - 1], keys[kLargestRun][at])
          << parts << " parts, cut " << p;
    }
  }
  for (int r : {0, 1, 3})
    for (int i = 0; i < 100; ++i) keys[r].push_back((i * 4 + r) / 10);
  ExpectMergeIsStableSort(keys);
}

TEST(MergeSortedRuns, OneRunHoldsNearlyEveryElement) {
  std::vector<std::vector<int>> keys(4);
  for (int i = 0; i < 1000; ++i) keys[1].push_back(i / 20);
  keys[0] = {25};
  keys[2] = {0, 49};
  keys[3] = {10, 10};
  ExpectMergeIsStableSort(keys);
}

TEST(MergeSortedRuns, EmptyRuns) {
  ExpectMergeIsStableSort({});
  ExpectMergeIsStableSort({{}, {}, {}, {}, {}});
  ExpectMergeIsStableSort({{}, {1, 3, 5}, {}, {2, 3, 3}, {}});
  ExpectMergeIsStableSort({{1, 2, 3}, {}});
  ExpectMergeIsStableSort({{1, 1, 2, 3, 5, 8}});
}

TEST(MergeSortedRuns, AllEqualKeysKeepRunThenPositionOrder) {
  // Every element has the same key: the merged order is run 0's elements
  // in order, then run 1's, then run 2's.
  ExpectMergeIsStableSort({{7, 7, 7, 7}, {7, 7, 7, 7}, {7, 7, 7, 7}});
  ExpectMergeIsStableSort(std::vector<std::vector<int>>(
      4, std::vector<int>(50, 7)));
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
