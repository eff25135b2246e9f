// Property tests for the stable radix permutation sort (util/radix_sort.h):
// every case asserts the exact std::stable_sort order, inline and on pools
// of 1 to 4 threads, since the generator fast path's byte-identity
// guarantee rests on that equivalence at every thread count.
#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "trace/record_columns.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mcloud {
namespace {

/// Reference order: std::stable_sort of row indices under the same
/// lexicographic multi-component key the sorter sees.
std::vector<std::uint32_t> StableSortReference(
    std::size_t n, std::span<const RadixKey> keys) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     for (const RadixKey& k : keys) {
                       const std::uint64_t x = k.at(a);
                       const std::uint64_t y = k.at(b);
                       if (x != y) return x < y;
                     }
                     return false;
                   });
  return perm;
}

/// The inline (null) pool, then pools of 1, 2, 3 and 4 threads: Pools()[t]
/// has t threads. Three threads split the rows into uneven shards.
std::vector<ThreadPool*> Pools() {
  static ThreadPool pools[4] = {ThreadPool(1), ThreadPool(2), ThreadPool(3),
                                ThreadPool(4)};
  return {nullptr, &pools[0], &pools[1], &pools[2], &pools[3]};
}

int Threads(const ThreadPool* pool) { return pool ? pool->threads() : 0; }

void ExpectPerm(std::span<const std::uint32_t> got,
                const std::vector<std::uint32_t>& want,
                const ThreadPool* pool) {
  ASSERT_EQ(got.size(), want.size()) << "threads " << Threads(pool);
  for (std::size_t j = 0; j < want.size(); ++j)
    ASSERT_EQ(got[j], want[j])
        << "threads " << Threads(pool) << " rank " << j;
}

void ExpectMatchesStableSort(std::span<const RadixKey> keys, std::size_t n) {
  const std::vector<std::uint32_t> want = StableSortReference(n, keys);
  for (ThreadPool* pool : Pools()) {
    StableRadixSorter sorter;
    ExpectPerm(sorter.Sort(n, keys, pool), want, pool);
  }
}

TEST(RadixSort, EmptyAndSingle) {
  const std::vector<std::int64_t> one = {42};
  const RadixKey keys[1] = {RadixKey::I64(one)};
  for (ThreadPool* pool : Pools()) {
    StableRadixSorter sorter;
    EXPECT_TRUE(sorter.Sort(0, keys, pool).empty());
    const auto perm = sorter.Sort(1, keys, pool);
    ASSERT_EQ(perm.size(), 1u);
    EXPECT_EQ(perm[0], 0u);
  }
}

TEST(RadixSort, AllEqualKeysIsIdentity) {
  // Degenerate day: every session at the same timestamp. Stability demands
  // the identity permutation. Sized above kSmallN to hit the radix path.
  const std::size_t n = 4 * StableRadixSorter::kSmallN;
  const std::vector<std::int64_t> ts(n, 1404172800);
  const RadixKey keys[1] = {RadixKey::I64(ts)};
  ExpectMatchesStableSort(keys, n);
}

TEST(RadixSort, NegativeAndCrossMidnightKeys) {
  // Signed keys straddling zero (timestamps relative to an epoch mid-trace)
  // must order sign-correctly through the bias mapping.
  std::vector<std::int64_t> ts;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t base =
        static_cast<std::int64_t>(rng.UniformInt(5)) * 86400 - 2 * 86400;
    ts.push_back(base + static_cast<std::int64_t>(rng.UniformInt(86400)));
  }
  ts.push_back(INT64_MIN);
  ts.push_back(INT64_MAX);
  ts.push_back(0);
  ts.push_back(-1);
  ts.push_back(1);
  ts.push_back(INT64_MIN);
  ts.push_back(INT64_MAX);
  const RadixKey keys[1] = {RadixKey::I64(ts)};
  ExpectMatchesStableSort(keys, ts.size());
}

TEST(RadixSort, SmallNBoundary) {
  // Both sides of the kSmallN cutoff take different code paths; the order
  // must agree with the reference on each.
  Rng rng(11);
  for (const std::size_t n :
       {StableRadixSorter::kSmallN - 1, StableRadixSorter::kSmallN,
        StableRadixSorter::kSmallN + 1}) {
    std::vector<std::uint64_t> users;
    std::vector<std::int64_t> ts;
    for (std::size_t i = 0; i < n; ++i) {
      users.push_back(rng.UniformInt(16));  // heavy ties
      ts.push_back(static_cast<std::int64_t>(rng.UniformInt(8)));
    }
    const RadixKey keys[2] = {RadixKey::I64(ts), RadixKey::U64(users)};
    ExpectMatchesStableSort(keys, n);
  }
}

TEST(RadixSort, MultiComponentMatchesLexicographicOrder) {
  // Three components like the record order (timestamp, user, device) with
  // deliberate tie structure at every level.
  Rng rng(13);
  const std::size_t n = 50000;
  std::vector<std::int64_t> ts;
  std::vector<std::uint64_t> users;
  std::vector<std::uint64_t> devices;
  for (std::size_t i = 0; i < n; ++i) {
    ts.push_back(1404172800 + static_cast<std::int64_t>(rng.UniformInt(600)));
    users.push_back(rng.UniformInt(300));
    // Device ids straddle the PC range bit like real traces do.
    devices.push_back(rng.Bernoulli(0.3) ? (1ULL << 48) + rng.UniformInt(300)
                                         : rng.UniformInt(1000));
  }
  const RadixKey keys[3] = {RadixKey::I64(ts), RadixKey::U64(users),
                            RadixKey::U64(devices)};
  ExpectMatchesStableSort(keys, n);
}

TEST(RadixSort, AllButOneRowInOneMsdBucket) {
  // Compression keeps the fused key's top bit varying, so the most skewed
  // MSD split is every row but one in a single bucket: here bits 20..27
  // vary only because of the last row, so the rest share MSD digit 0 and
  // one bucket task sorts 20 low bits (plus a user tie-breaker) alone.
  Rng rng(19);
  const std::size_t n = 60000;
  std::vector<std::uint64_t> ts;
  std::vector<std::uint64_t> users;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ts.push_back(rng.UniformInt(1u << 20));
    users.push_back(rng.UniformInt(4));
  }
  ts.push_back(0xFFULL << 20);
  users.push_back(0);
  const RadixKey keys[2] = {RadixKey::U64(ts), RadixKey::U64(users)};
  ExpectMatchesStableSort(keys, n);
}

TEST(RadixSort, KeyWiderThan64BitsMatchesStableSort) {
  // Two components of ~40 varying bits each: 80 bits do not fuse, so the
  // sorter falls back to one LSD pass sequence per component. The first
  // component draws from a few wide values, so the second breaks ties.
  Rng rng(23);
  const std::size_t n = 20000;
  std::vector<std::uint64_t> wide;
  for (int i = 0; i < 16; ++i) wide.push_back(rng.NextU64() >> 24);
  std::vector<std::uint64_t> first;
  std::vector<std::int64_t> second;
  for (std::size_t i = 0; i < n; ++i) {
    first.push_back(wide[rng.UniformInt(wide.size())]);
    second.push_back(static_cast<std::int64_t>(rng.NextU64() >> 24) -
                     (std::int64_t{1} << 39));
  }
  const RadixKey keys[2] = {RadixKey::U64(first), RadixKey::I64(second)};
  ExpectMatchesStableSort(keys, n);
}

TEST(RadixSort, MillionRowShuffleMatchesStableSort) {
  // Paper-scale single-component stress: 1M rows, many duplicates, full
  // shuffle. Also exercises scratch reuse by sorting twice with one sorter.
  Rng rng(17);
  const std::size_t n = 1'000'000;
  std::vector<std::int64_t> ts;
  ts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    ts.push_back(1404172800 +
                 static_cast<std::int64_t>(rng.UniformInt(7 * 86400)));
  const RadixKey keys[1] = {RadixKey::I64(ts)};
  const std::vector<std::uint32_t> want = StableSortReference(n, keys);
  for (ThreadPool* pool : Pools()) {
    StableRadixSorter sorter;
    for (int round = 0; round < 2; ++round)
      ExpectPerm(sorter.Sort(n, keys, pool), want, pool);
  }
}

TEST(RadixSort, OneSorterReusedAcrossPoolSizes) {
  // The scratch a sorter keeps from one call (permutation capacity, shard
  // histograms sized for another pool) must not leak into the next, as n
  // grows and shrinks and the pool changes.
  Rng rng(29);
  StableRadixSorter sorter;
  for (const std::size_t n : {std::size_t{5000}, std::size_t{300},
                              std::size_t{20000}, std::size_t{129}}) {
    std::vector<std::int64_t> ts;
    std::vector<std::uint64_t> users;
    for (std::size_t i = 0; i < n; ++i) {
      ts.push_back(static_cast<std::int64_t>(rng.UniformInt(5000)));
      users.push_back(rng.UniformInt(50));
    }
    const RadixKey keys[2] = {RadixKey::I64(ts), RadixKey::U64(users)};
    const std::vector<std::uint32_t> want = StableSortReference(n, keys);
    for (ThreadPool* pool : {Pools()[4], Pools()[1], Pools()[3], Pools()[0],
                             Pools()[2]})
      ExpectPerm(sorter.Sort(n, keys, pool), want, pool);
  }
}

TEST(RecordColumnsSort, PooledSortMatchesOneThread) {
  // A generated trace put back into user order (stable by user, so each
  // user's records keep their time order, as the emitter writes them):
  // sorting it on any pool restores the generated trace exactly.
  workload::WorkloadConfig cfg;
  cfg.population.mobile_users = 150;
  cfg.population.pc_only_users = 50;
  cfg.seed = 5;
  cfg.threads = 1;
  const std::vector<LogRecord> trace =
      workload::WorkloadGenerator(cfg).Generate().trace;
  std::vector<LogRecord> by_user = trace;
  std::stable_sort(by_user.begin(), by_user.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.user_id < b.user_id;
                   });
  RecordColumns unsorted;
  for (const LogRecord& r : by_user) unsorted.Append(r);
  ASSERT_GT(unsorted.size(), 10 * StableRadixSorter::kSmallN);

  RecordColumnsScratch scratch;
  RecordColumns one = unsorted;
  one.SortByTimeOrder(scratch, *Pools()[1]);
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(one.RecordAt(i), trace[i]) << "row " << i;
  for (const std::size_t p : {2, 3, 4}) {
    RecordColumns cols = unsorted;
    cols.SortByTimeOrder(scratch, *Pools()[p]);
    RecordColumns::ForEachColumn([&](auto column) {
      EXPECT_TRUE(cols.*column == one.*column) << "threads " << p;
    });
  }
}

}  // namespace
}  // namespace mcloud
