// Stable radix permutation sort over multi-component 64-bit keys, run on
// the caller's thread pool.
//
// The workload generator's hot path sorts multi-million-record runs by
// (timestamp, user, device) and session runs by (start, user). Comparison
// sorting pays O(n log n) comparator calls, each touching a ~100-byte
// record; this sorter instead computes the *stable ascending permutation*
// of the rows from packed 16-byte (key, index) pairs in O(n) counting-sort
// passes, and the caller applies it with one gather per column. The result
// is provably the std::stable_sort order: every counting-sort pass is
// stable, and ties keep the input order because the pair index rides along.
//
// Four twists keep the pass count low and the passes parallel without
// changing the order:
//   * Varying-bit compression. Before sorting, one scan over contiguous
//     row shards computes each component's OR and AND aggregates; bit
//     positions where all values agree cannot influence the order, so only
//     the varying bit ranges are extracted (shift/mask, preserving
//     significance order) into a compact key. A one-week timestamp column
//     collapses to ~20 bits; a device-id column whose values straddle the
//     PC range bit (1<<48) collapses to its few populated ranges instead of
//     49 bits. Extracting identical bit positions from every value is
//     order-preserving exactly because the dropped bits are equal
//     everywhere.
//   * Key fusion. When the varying bits of ALL components fit in 64 —
//     always true for generator traces (≈20 ts + ≈17 user + ≈20 device) —
//     the components are packed into a single compressed key, most
//     significant component highest. Lexicographic order on the component
//     tuple equals numeric order on the fused key because the fields occupy
//     disjoint bit ranges in significance order.
//   * One MSD pass, then LSD passes inside each bucket. One stable counting
//     pass on the fused key's top kMsdBits bits distributes the pairs into
//     buckets. Each row shard counts its digits into its own histogram, and
//     the scatter offsets are prefix sums taken bucket-major, shard-minor:
//     shard s's rows of bucket b land after every earlier shard's rows of
//     b, which is where a serial stable scatter puts them, for any shard
//     count. The buckets are then disjoint, ascending ranges of the output,
//     so each one's remaining low bits are sorted independently, as one
//     pool task of stable LSD counting passes whose digit width is sized to
//     the bucket (a bucket that fits in cache sorts faster than the whole
//     array, even on one thread).
//   * Small-run cutoff. Below kSmallN rows the counting tables dwarf the
//     data; the sorter falls back to std::stable_sort on the permutation
//     with a lexicographic key comparator — the same order by definition.
//
// Every pool size runs the same passes over the same buckets (a null pool,
// like a pool of one, runs every task inline), so the permutation does not
// depend on the thread count. Keys wider than 64 bits after compression
// fall back to serial LSD passes, one component at a time.
//
// The permutation, the pair buffers and the shard tables live in the
// sorter object and are reused across calls; each bucket task counts into
// its own small table. The pair buffers are dead once the permutation is
// written, so a one-off sort can drop them (ReleasePairs) before its caller
// allocates its gather targets: 2 × 57 MB at 3.6M rows. Neither the pairs
// nor the permutation is zero-filled: every element is written before it
// is read, and the first touch happens inside the parallel passes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace mcloud {

/// One key component: a borrowed view of n unsigned or signed 64-bit
/// values. Signed values are mapped through a sign-flip bias so unsigned
/// digit comparison reproduces signed order.
struct RadixKey {
  const std::uint64_t* u64 = nullptr;
  const std::int64_t* i64 = nullptr;

  [[nodiscard]] static RadixKey U64(std::span<const std::uint64_t> c) {
    RadixKey k;
    k.u64 = c.data();
    return k;
  }
  [[nodiscard]] static RadixKey I64(std::span<const std::int64_t> c) {
    RadixKey k;
    k.i64 = c.data();
    return k;
  }

  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    return u64 ? u64[i]
               : static_cast<std::uint64_t>(i64[i]) ^ (1ULL << 63);
  }
};

class StableRadixSorter {
 public:
  /// Rows below this go through std::stable_sort on the permutation (same
  /// order, no counting-table overhead). Exposed for the property tests.
  static constexpr std::size_t kSmallN = 128;
  /// Top bits of the fused key the MSD pass distributes on: up to 256
  /// buckets, enough tasks for the pool to balance uneven buckets.
  static constexpr int kMsdBits = 8;

  /// Compute the stable ascending permutation of rows [0, n) under the
  /// lexicographic key (keys[0], keys[1], ...), keys[0] most significant.
  /// The passes run on `pool`; a null pool runs them inline. The result is
  /// the same for every pool. Must not be called from a task of `pool`.
  /// The returned span is owned by the sorter and valid until the next
  /// Sort call. perm[j] = index of the row ranked j.
  std::span<const std::uint32_t> Sort(std::size_t n,
                                      std::span<const RadixKey> keys,
                                      ThreadPool* pool = nullptr) {
    MCLOUD_REQUIRE(n <= UINT32_MAX, "radix sort permutation is 32-bit");
    n_ = n;
    if (n > perm_capacity_) {
      perm_.reset();
      perm_ = std::make_unique_for_overwrite<std::uint32_t[]>(n);
      perm_capacity_ = n;
    }
    if (n < 2 || keys.empty()) {
      Identity(pool);
      return perm();
    }

    if (n < kSmallN) {
      Identity(nullptr);
      std::stable_sort(perm_.get(), perm_.get() + n,
                       [&](std::uint32_t a, std::uint32_t b) {
                         for (const RadixKey& k : keys) {
                           const std::uint64_t x = k.at(a);
                           const std::uint64_t y = k.at(b);
                           if (x != y) return x < y;
                         }
                         return false;
                       });
      return perm();
    }

    const int total_bits = PlanComponents(keys, pool);
    if (total_bits == 0) {  // all rows equal: stable no-op
      Identity(pool);
    } else if (total_bits <= 64) {
      FusedSort(keys, total_bits, pool);
    } else {
      // LSD over components: least-significant component first; each
      // component pass is a stable sort of the current permutation.
      Identity(pool);
      Pair* const pairs = PairBuffers();
      for (std::size_t c = keys.size(); c-- > 0;)
        if (plans_[c].bits > 0)
          ComponentPass(keys[c], plans_[c], pairs, pairs + n);
    }
    return perm();
  }

  /// Last permutation computed (same lifetime rules as Sort's result).
  [[nodiscard]] std::span<const std::uint32_t> perm() const {
    return {perm_.get(), n_};
  }

  /// Frees the pair buffers (32 bytes per row), which only a running Sort
  /// uses; the last permutation stays valid. For a one-off sort whose
  /// caller allocates more while it applies the permutation.
  void ReleasePairs() {
    pairs_.reset();
    pairs_capacity_ = 0;
  }

 private:
  struct Pair {
    std::uint64_t key;
    std::uint32_t idx;
  };
  /// A contiguous run of varying bits: extract (v >> shift_in) & mask and
  /// place it at shift_out in the compressed key.
  struct BitRun {
    int shift_in;
    int shift_out;
    std::uint64_t mask;
  };
  /// One component's extraction plan: its BitRuns live in runs_[run_begin,
  /// run_end) and produce a `bits`-wide compressed value.
  struct ComponentPlan {
    std::size_t run_begin = 0;
    std::size_t run_end = 0;
    int bits = 0;
  };
  /// OR and AND of one component's values over one row shard.
  struct Aggregate {
    std::uint64_t all_or = 0;
    std::uint64_t all_and = ~0ULL;
  };
  /// The two n_-pair buffers, back to back.
  Pair* PairBuffers() {
    if (2 * n_ > pairs_capacity_) {
      pairs_.reset();
      pairs_ = std::make_unique_for_overwrite<Pair[]>(2 * n_);
      pairs_capacity_ = 2 * n_;
    }
    return pairs_.get();
  }

  void Identity(ThreadPool* pool) {
    std::uint32_t* perm = perm_.get();
    ParallelForShards(pool, n_, [perm](std::size_t, std::size_t begin,
                                       std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    });
  }

  /// Plan every component: one aggregate scan over the row shards, then
  /// the varying-bit extraction runs. Returns the compressed width.
  int PlanComponents(std::span<const RadixKey> keys, ThreadPool* pool) {
    const std::size_t k = keys.size();
    const std::size_t shards = ShardCount(pool, n_);
    aggregates_.assign(shards * k, Aggregate{});
    ParallelForShards(pool, n_, [&](std::size_t s, std::size_t begin,
                                    std::size_t end) {
      for (std::size_t c = 0; c < k; ++c) {
        Aggregate agg;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t v = keys[c].at(i);
          agg.all_or |= v;
          agg.all_and &= v;
        }
        aggregates_[s * k + c] = agg;
      }
    });
    plans_.clear();
    runs_.clear();
    int total_bits = 0;
    for (std::size_t c = 0; c < k; ++c) {
      Aggregate agg;
      for (std::size_t s = 0; s < shards; ++s) {
        agg.all_or |= aggregates_[s * k + c].all_or;
        agg.all_and &= aggregates_[s * k + c].all_and;
      }
      const ComponentPlan plan = PlanComponent(agg.all_or & ~agg.all_and);
      total_bits += plan.bits;
      plans_.push_back(plan);
    }
    return total_bits;
  }

  /// Bit positions where every value agrees are constant and cannot affect
  /// the order; the `varying` ones become contiguous extraction runs.
  ComponentPlan PlanComponent(std::uint64_t varying) {
    ComponentPlan plan;
    plan.run_begin = runs_.size();
    int out_pos = 0;
    std::uint64_t rest = varying;
    while (rest != 0) {
      const int lo = std::countr_zero(rest);
      const std::uint64_t aligned = rest >> lo;
      const int len = std::countr_one(aligned);
      const std::uint64_t mask = len >= 64 ? ~0ULL : ((1ULL << len) - 1);
      runs_.push_back({lo, out_pos, mask});
      out_pos += len;
      rest &= ~(mask << lo);
    }
    plan.run_end = runs_.size();
    plan.bits = out_pos;
    return plan;
  }

  [[nodiscard]] std::uint64_t Compress(const RadixKey& key,
                                       const ComponentPlan& plan,
                                       std::uint32_t idx) const {
    const std::uint64_t v = key.at(idx);
    std::uint64_t ck = 0;
    for (std::size_t r = plan.run_begin; r < plan.run_end; ++r)
      ck |= ((v >> runs_[r].shift_in) & runs_[r].mask) << runs_[r].shift_out;
    return ck;
  }

  /// All components at once: pack each row's fused key (component c above
  /// the combined width of the less-significant components c+1..) while
  /// counting its MSD digit per shard, scatter stably into the buckets,
  /// then sort each bucket's low bits as one task.
  void FusedSort(std::span<const RadixKey> keys, int total_bits,
                 ThreadPool* pool) {
    int shift = 0;
    for (std::size_t c = keys.size(); c-- > 0;) {
      for (std::size_t r = plans_[c].run_begin; r < plans_[c].run_end; ++r)
        runs_[r].shift_out += shift;
      shift += plans_[c].bits;
    }
    const int msd_bits = std::min(kMsdBits, total_bits);
    const int low_bits = total_bits - msd_bits;
    const std::size_t buckets = std::size_t{1} << msd_bits;
    Pair* const packed = PairBuffers();
    Pair* const scattered = packed + n_;

    const std::size_t shards = ShardCount(pool, n_);
    offsets_.assign(shards * buckets, 0);
    ParallelForShards(pool, n_, [&](std::size_t s, std::size_t begin,
                                    std::size_t end) {
      std::uint32_t* const hist = &offsets_[s * buckets];
      for (std::size_t j = begin; j < end; ++j) {
        const auto idx = static_cast<std::uint32_t>(j);
        std::uint64_t fused = 0;
        for (std::size_t c = 0; c < keys.size(); ++c)
          fused |= Compress(keys[c], plans_[c], idx);
        packed[j] = {fused, idx};
        ++hist[fused >> low_bits];
      }
    });

    // Bucket-major, shard-minor prefix sums: the serial stable scatter's
    // offsets, split at the shard boundaries.
    bucket_begin_.resize(buckets + 1);
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      bucket_begin_[b] = sum;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::uint32_t count = offsets_[s * buckets + b];
        offsets_[s * buckets + b] = sum;
        sum += count;
      }
    }
    bucket_begin_[buckets] = sum;

    ParallelForShards(pool, n_, [&](std::size_t s, std::size_t begin,
                                    std::size_t end) {
      std::uint32_t* const next = &offsets_[s * buckets];
      for (std::size_t j = begin; j < end; ++j)
        scattered[next[packed[j].key >> low_bits]++] = packed[j];
    });

    std::uint32_t* const perm = perm_.get();
    RunTasks(pool, buckets, [&](std::size_t b) {
      const std::size_t lo = bucket_begin_[b];
      SortBucket(scattered + lo, packed + lo, bucket_begin_[b + 1] - lo,
                 low_bits, perm + lo);
    });
  }

  /// Stable LSD counting passes over the low `bits` bits of one bucket's m
  /// pairs in `cur` (`tmp` is scratch of the same length), writing the
  /// bucket's slice of the permutation to `out`. The digits are sized so
  /// the counting tables do not dwarf the bucket; any split gives the same
  /// order. A pass's digit may reach above `bits` into the MSD digit, which
  /// is constant inside the bucket.
  static void SortBucket(Pair* cur, Pair* tmp, std::size_t m, int bits,
                         std::uint32_t* out) {
    if (m < 2 || bits == 0) {
      for (std::size_t i = 0; i < m; ++i) out[i] = cur[i].idx;
      return;
    }
    const int widest =
        std::clamp(static_cast<int>(std::bit_width(m)) - 1, 4, 12);
    const int passes = (bits + widest - 1) / widest;
    const int digit = (bits + passes - 1) / passes;
    const std::size_t radix = std::size_t{1} << digit;
    const std::uint64_t mask = radix - 1;

    // One read counts every pass's digits (a digit's histogram does not
    // depend on the order); then each table becomes scatter offsets.
    std::vector<std::uint32_t> counts(static_cast<std::size_t>(passes) *
                                      radix);
    for (std::size_t i = 0; i < m; ++i) {
      std::uint64_t key = cur[i].key;
      for (int p = 0; p < passes; ++p, key >>= digit)
        ++counts[static_cast<std::size_t>(p) * radix + (key & mask)];
    }
    for (int p = 0; p < passes; ++p) {
      std::uint32_t* const table =
          &counts[static_cast<std::size_t>(p) * radix];
      std::uint32_t sum = 0;
      for (std::size_t d = 0; d < radix; ++d) {
        const std::uint32_t count = table[d];
        table[d] = sum;
        sum += count;
      }
    }

    for (int p = 0; p < passes; ++p) {
      std::uint32_t* const next =
          &counts[static_cast<std::size_t>(p) * radix];
      const int shift = p * digit;
      if (p + 1 < passes) {
        for (std::size_t i = 0; i < m; ++i)
          tmp[next[(cur[i].key >> shift) & mask]++] = cur[i];
        std::swap(cur, tmp);
      } else {
        for (std::size_t i = 0; i < m; ++i)
          out[next[(cur[i].key >> shift) & mask]++] = cur[i].idx;
      }
    }
  }

  /// One component's stable pass over the current permutation, through
  /// the n-pair buffers `cur` and `nxt`.
  void ComponentPass(const RadixKey& key, const ComponentPlan& plan,
                     Pair* cur, Pair* nxt) {
    // Pack pairs in current permutation order; the index carries stability.
    for (std::size_t j = 0; j < n_; ++j) {
      const std::uint32_t idx = perm_[j];
      cur[j] = {Compress(key, plan, idx), idx};
    }
    CountingPasses(plan.bits, cur, nxt);
  }

  /// 16-bit-digit counting-sort passes over the pairs in `cur`,
  /// ping-ponging with `nxt`; writes the final order back into perm_.
  void CountingPasses(int total_bits, Pair* cur, Pair* nxt) {
    for (int shift = 0; shift < total_bits; shift += 16) {
      const int digit_bits = std::min(16, total_bits - shift);
      const std::size_t buckets = std::size_t{1} << digit_bits;
      const std::uint64_t digit_mask = buckets - 1;
      count_.assign(buckets + 1, 0);
      for (std::size_t j = 0; j < n_; ++j)
        ++count_[((cur[j].key >> shift) & digit_mask) + 1];
      for (std::size_t b = 1; b <= buckets; ++b) count_[b] += count_[b - 1];
      for (std::size_t j = 0; j < n_; ++j)
        nxt[count_[(cur[j].key >> shift) & digit_mask]++] = cur[j];
      std::swap(cur, nxt);
    }
    for (std::size_t j = 0; j < n_; ++j) perm_[j] = cur[j].idx;
  }

  std::size_t n_ = 0;
  std::unique_ptr<std::uint32_t[]> perm_;
  std::size_t perm_capacity_ = 0;
  std::unique_ptr<Pair[]> pairs_;
  std::size_t pairs_capacity_ = 0;
  std::vector<Aggregate> aggregates_;
  /// Per-shard MSD histograms, then per-shard scatter offsets.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> bucket_begin_;
  std::vector<std::uint32_t> count_;
  std::vector<BitRun> runs_;
  std::vector<ComponentPlan> plans_;
};

}  // namespace mcloud
