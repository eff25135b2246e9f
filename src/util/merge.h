// Stable k-way merge of sorted runs.
//
// The sharded fleet simulation merges its shards' time-sorted logs and
// retrieval events with it. The merge is *stable across runs*: when two
// elements compare equal, the one from the lower-indexed run wins, and
// elements within one run keep their order. Merging contiguous,
// stably-sorted partitions of a sequence therefore yields exactly
// std::stable_sort of the whole sequence.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace mcloud {

/// Merge `runs` (each sorted by `less`, ties in original order) into a sink:
/// `sink(T&&)` receives the merged elements in order. Consumes the runs;
/// each run's storage is released as soon as it is exhausted. This is the
/// core the vector-producing overload wraps — use it directly to merge into
/// a columnar builder without materializing the merged AoS vector.
template <typename T, typename Less, typename Sink>
void MergeSortedRunsInto(std::vector<std::vector<T>>&& runs, Less less,
                         Sink&& sink) {
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
    if (!runs[r].empty()) heap.push_back({r, 0});
  }
  for (std::size_t i = heap.size(); i-- > 0;) sift_down(i);

  while (!heap.empty()) {
    Head& top = heap.front();
    sink(std::move(runs[top.run][top.pos]));
    if (++top.pos == runs[top.run].size()) {
      // Run exhausted: free its storage and shrink the heap.
      runs[top.run] = std::vector<T>();
      heap.front() = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_down(0);
  }
  runs.clear();
}

/// Merge `runs` (each sorted by `less`, ties in original order) into one
/// sorted vector. Consumes the runs; peak memory is output + the
/// unexhausted tails.
template <typename T, typename Less>
[[nodiscard]] std::vector<T> MergeSortedRuns(std::vector<std::vector<T>>&& runs,
                                             Less less) {
  if (runs.size() == 1) {
    std::vector<T> out = std::move(runs.front());
    runs.clear();
    return out;
  }
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  std::vector<T> out;
  out.reserve(total);
  MergeSortedRunsInto(std::move(runs), less,
                      [&out](T&& v) { out.push_back(std::move(v)); });
  return out;
}

}  // namespace mcloud
