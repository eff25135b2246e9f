#include "util/parallel.h"

#include <algorithm>

#include "util/error.h"

namespace mcloud {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ClampThreadsToHardware(int requested) {
  return std::min(ResolveThreads(requested), ResolveThreads(0));
}

ThreadPool::ThreadPool(int threads) : threads_(ResolveThreads(threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::DrainBatch(std::unique_lock<std::mutex>& lock) {
  while (next_ < count_) {
    const std::size_t i = next_++;
    lock.unlock();
    try {
      (*body_)(i);
    } catch (...) {
      lock.lock();
      if (!error_) error_ = std::current_exception();
      ++done_;
      continue;
    }
    lock.lock();
    ++done_;
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_batch = 0;
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || (batch_id_ != seen_batch && next_ < count_);
    });
    if (stop_) return;
    seen_batch = batch_id_;
    DrainBatch(lock);
    if (done_ == count_) done_cv_.notify_all();
  }
}

void ThreadPool::Run(std::size_t count,
                     const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (threads_ == 1 || count == 1) {
    // Inline fast path: no synchronization, identical to serial execution.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  MCLOUD_REQUIRE(body_ == nullptr, "ThreadPool::Run is not reentrant");
  body_ = &body;
  count_ = count;
  next_ = 0;
  done_ = 0;
  error_ = nullptr;
  ++batch_id_;
  work_cv_.notify_all();

  // The calling thread participates in the batch.
  DrainBatch(lock);
  done_cv_.wait(lock, [&] { return done_ == count_; });

  body_ = nullptr;
  count_ = 0;
  next_ = 0;
  const std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

std::size_t ShardCount(const ThreadPool& pool, std::size_t n) {
  return std::min<std::size_t>(static_cast<std::size_t>(pool.threads()), n);
}

ShardRange ShardBounds(std::size_t n, std::size_t shards, std::size_t s) {
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;  // first `extra` shards get +1
  const std::size_t begin = s * base + std::min(s, extra);
  return {begin, begin + base + (s < extra ? 1 : 0)};
}

void ParallelForShards(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t shards = ShardCount(pool, n);
  if (shards == 0) return;
  pool.Run(shards, [&](std::size_t s) {
    const ShardRange r = ShardBounds(n, shards, s);
    body(s, r.begin, r.end);
  });
}

void RunTasks(ThreadPool* pool, std::size_t count,
              const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->Run(count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
}

void ParallelForShards(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    ParallelForShards(*pool, n, body);
  } else if (n > 0) {
    body(0, 0, n);
  }
}

std::size_t ShardCount(const ThreadPool* pool, std::size_t n) {
  return pool != nullptr ? ShardCount(*pool, n) : std::min<std::size_t>(1, n);
}

void ParallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  ParallelForShards(pool, n,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) body(i);
                    });
}

void ParallelInvoke(ThreadPool& pool,
                    std::vector<std::function<void()>> tasks) {
  pool.Run(tasks.size(), [&](std::size_t i) { tasks[i](); });
}

}  // namespace mcloud
