// Fixed-size thread pool and static-sharding parallel loops.
//
// The generators and the analysis pipeline shard work across a small fixed
// pool; all parallel constructs here are *deterministic*: the decomposition
// of work into shards depends only on the input size, never on scheduling,
// so callers that merge shard results in shard order produce output
// independent of the number of threads (see DESIGN.md "Concurrency model").
//
// A pool of size 1 never spawns a worker thread: every construct runs inline
// on the calling thread, which keeps the `threads = 1` path exactly the
// serial code path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcloud {

/// `requested` if positive, otherwise std::thread::hardware_concurrency()
/// (at least 1 — hardware_concurrency() may return 0).
[[nodiscard]] int ResolveThreads(int requested);

/// ResolveThreads, additionally clamped to the hardware concurrency: asking
/// for more threads than the machine has cores oversubscribes CPU-bound
/// stages (measured: the fit stage ran 1.9x *slower* at --threads 4 on a
/// 1-core host) without buying determinism — results are thread-count
/// invariant either way, so wider than the hardware is pure loss.
[[nodiscard]] int ClampThreadsToHardware(int requested);

/// Fixed pool of `threads - 1` workers; the thread calling Run participates,
/// so a pool of size N runs batches on exactly N threads. Batches are
/// submitted one at a time (Run blocks until the batch completes), which is
/// all the generators need and keeps the synchronization trivial to audit
/// under ThreadSanitizer.
class ThreadPool {
 public:
  /// `threads` <= 0 resolves to hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Run tasks 0..count-1 by invoking body(i) across the pool; blocks until
  /// all complete. The first exception thrown by any task is rethrown here
  /// (remaining tasks still drain). Tasks must not call Run on the same
  /// pool recursively.
  void Run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void WorkerLoop();
  /// Claims and runs tasks of the current batch until none remain.
  void DrainBatch(std::unique_lock<std::mutex>& lock);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for a batch
  std::condition_variable done_cv_;   ///< Run waits for batch completion
  bool stop_ = false;
  std::uint64_t batch_id_ = 0;        ///< bumped per Run; wakes workers
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;             ///< tasks in the current batch
  std::size_t next_ = 0;              ///< next unclaimed task index
  std::size_t done_ = 0;              ///< completed tasks
  std::exception_ptr error_;          ///< first task exception
};

/// Contiguous static shards of [0, n): shard s covers [begin, end). At most
/// pool.threads() shards; every shard is non-empty. The shard *boundaries*
/// depend on the pool size, so use this only when downstream consumers are
/// insensitive to the decomposition (e.g. shard results are merged with a
/// stable merge, or reduced with an order-insensitive reduction).
void ParallelForShards(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body);

/// Number of shards ParallelForShards will use for `n` items — for sizing
/// per-shard result slots.
[[nodiscard]] std::size_t ShardCount(const ThreadPool& pool, std::size_t n);

/// Shard `s` of `n` items cut into `shards` contiguous pieces, exactly as
/// ParallelForShards cuts them (the first n % shards shards get one more
/// item) — for state that outlives one batch, such as the analysis walk's
/// per-thread user ranges.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
[[nodiscard]] ShardRange ShardBounds(std::size_t n, std::size_t shards,
                                     std::size_t s);

// Optional-pool forms: a null pool runs the work inline on the calling
// thread, exactly as a pool of one does. Library entry points that take a
// `ThreadPool*` defaulting to null use these, so one code path serves both.

/// pool->Run(count, body), or body(0), ..., body(count - 1) inline.
void RunTasks(ThreadPool* pool, std::size_t count,
              const std::function<void(std::size_t)>& body);

/// ParallelForShards on `pool`, or one inline shard [0, n).
void ParallelForShards(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body);

/// ShardCount(*pool, n), or 1 for a null pool (0 when n is 0).
[[nodiscard]] std::size_t ShardCount(const ThreadPool* pool, std::size_t n);

/// Elementwise parallel loop: body(i) for i in [0, n), statically sharded.
/// Each index is processed exactly once; writes to disjoint elements of a
/// pre-sized output need no further synchronization.
void ParallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& body);

/// Map fn over [0, n) into a default-constructed vector<R>. Deterministic:
/// out[i] = fn(i) regardless of thread count.
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> ParallelMap(ThreadPool& pool, std::size_t n,
                                         Fn&& fn) {
  std::vector<R> out(n);
  ParallelFor(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Run independent closures concurrently (the analysis pipeline's stage
/// DAG). With a pool of size 1 the tasks run inline, in order.
void ParallelInvoke(ThreadPool& pool,
                    std::vector<std::function<void()>> tasks);

}  // namespace mcloud
