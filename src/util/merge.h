// Stable k-way merge of sorted runs, optionally on a thread pool.
//
// The sharded fleet simulation merges its shards' time-sorted logs and
// retrieval events with it. The merge is *stable across runs*: when two
// elements compare equal, the one from the lower-indexed run wins, and
// elements within one run keep their order. Merging contiguous,
// stably-sorted partitions of a sequence therefore yields exactly
// std::stable_sort of the whole sequence.
//
// On a pool the output is cut at splitter keys into one part per thread.
// Every run is cut at each splitter's lower_bound, so all elements equal to
// a splitter — from every run — fall into the same part, and no run of
// equal keys straddles a cut; each part is then an ordinary stable heap
// merge of its slices of the runs. The parts' concatenation is therefore
// the serial merge's output, byte for byte, at every pool size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace mcloud {

namespace merge_detail {

/// Stable heap merge of [begin[r], end[r]) of `runs[r]` for every r, moving
/// the elements to `out` in order. Ties go to the lower run index.
template <typename T, typename Less>
void HeapMerge(std::vector<std::vector<T>>& runs,
               const std::vector<std::size_t>& begin,
               const std::vector<std::size_t>& end, const Less& less,
               T* out) {
  // Heap entry: (run index, position). Ordering: smaller element first;
  // equal elements -> lower run index first (stability across runs).
  struct Head {
    std::size_t run;
    std::size_t pos;
  };
  std::vector<Head> heap;
  heap.reserve(runs.size());
  const auto head_after = [&](const Head& a, const Head& b) {
    const T& x = runs[a.run][a.pos];
    const T& y = runs[b.run][b.pos];
    if (less(x, y)) return false;
    if (less(y, x)) return true;
    return a.run > b.run;
  };
  const auto sift_down = [&](std::size_t i) {
    for (;;) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t best = i;
      if (l < heap.size() && head_after(heap[best], heap[l])) best = l;
      if (r < heap.size() && head_after(heap[best], heap[r])) best = r;
      if (best == i) return;
      std::swap(heap[i], heap[best]);
      i = best;
    }
  };

  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (begin[r] < end[r]) heap.push_back({r, begin[r]});
  }
  for (std::size_t i = heap.size(); i-- > 0;) sift_down(i);

  while (!heap.empty()) {
    Head& top = heap.front();
    *out++ = std::move(runs[top.run][top.pos]);
    if (++top.pos == end[top.run]) {
      heap.front() = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_down(0);
  }
}

}  // namespace merge_detail

/// Merge `runs` (each sorted by `less`, ties in original order) into one
/// sorted vector. Consumes the runs. The output is sized once; on a pool of
/// more than one thread it is cut into one part per thread at keys drawn
/// from the largest run, and the parts are merged concurrently (see the
/// file comment). A null pool merges inline. Peak memory is the output plus
/// the runs.
template <typename T, typename Less>
[[nodiscard]] std::vector<T> MergeSortedRuns(std::vector<std::vector<T>>&& runs,
                                             Less less,
                                             ThreadPool* pool = nullptr) {
  if (runs.size() == 1) {
    std::vector<T> out = std::move(runs.front());
    runs.clear();
    return out;
  }
  std::size_t total = 0;
  std::size_t largest = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (runs[r].size() > runs[largest].size()) largest = r;
  }
  std::vector<T> out(total);
  if (total == 0) {
    runs.clear();
    return out;
  }

  // cuts[p][r]: where part p starts in run r. Part p covers, in every run,
  // the elements not less than splitter p and less than splitter p + 1.
  const std::size_t parts = std::min(ShardCount(pool, total),
                                     runs[largest].size());
  std::vector<std::vector<std::size_t>> cuts(
      parts + 1, std::vector<std::size_t>(runs.size(), 0));
  for (std::size_t r = 0; r < runs.size(); ++r)
    cuts[parts][r] = runs[r].size();
  for (std::size_t p = 1; p < parts; ++p) {
    const T& splitter =
        runs[largest][ShardBounds(runs[largest].size(), parts, p).begin];
    for (std::size_t r = 0; r < runs.size(); ++r) {
      cuts[p][r] = static_cast<std::size_t>(
          std::lower_bound(runs[r].begin(), runs[r].end(), splitter, less) -
          runs[r].begin());
    }
  }
  RunTasks(pool, parts, [&](std::size_t p) {
    std::size_t at = 0;
    for (const std::size_t c : cuts[p]) at += c;
    merge_detail::HeapMerge(runs, cuts[p], cuts[p + 1], less, out.data() + at);
  });
  runs.clear();
  return out;
}

}  // namespace mcloud
