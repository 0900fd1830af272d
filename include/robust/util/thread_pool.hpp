// A small fixed-size thread pool and the one shard dispatcher every parallel
// lane uses (forEachShard).
//
// Batch lanes evaluate thousands of independent instances, samples or
// mappings; each evaluation is pure given its inputs (and substream RNG), so
// any shard schedule writing disjoint output slots is deterministic.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace robust {

/// Fixed-size worker pool. Tasks are arbitrary void() callables; submission
/// is thread-safe; destruction joins all workers after draining the queue.
///
/// Exception safety: a throwing task never takes the pool (or the process)
/// down. The first exception a task escapes with is captured and rethrown
/// from the next wait(); later submissions still run normally, so a
/// long-lived service can keep using the pool after a poisoned task.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Signals shutdown and joins every worker; queued tasks still run. A
  /// captured task exception that was never collected by wait() is
  /// discarded (destructors cannot throw).
  ~ThreadPool();

  /// Enqueues one task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any task escaped with since the last
  /// wait() (clearing it, so the pool remains usable).
  void wait();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cvTask_;
  std::condition_variable cvDone_;
  std::size_t inFlight_ = 0;
  bool stop_ = false;
  std::exception_ptr failure_;  ///< first uncollected task exception
};

/// The largest worker count any override may ask for.
inline constexpr std::size_t kMaxThreads = 1024;

/// Parses a ROBUST_THREADS-style override: the thread count when `text` is
/// a plain decimal integer in [1, kMaxThreads], otherwise 0 ("ignore").
/// Hostile values (negative, huge, trailing garbage, floats, empty, null)
/// all map to 0 so a bad environment can never oversubscribe or wedge the
/// pool.
[[nodiscard]] std::size_t parseThreadCount(const char* text) noexcept;

/// Worker count used wherever callers pass `threads = 0`: the
/// ROBUST_THREADS environment variable when parseThreadCount accepts it,
/// otherwise hardware concurrency (minimum 1). Read once and cached.
[[nodiscard]] std::size_t defaultThreadCount() noexcept;

/// Runs body(shard, lo, hi, scratch) once for every shard [lo, hi) of
/// [0, n), cut into `shardSize`-index pieces (the last may be short), and
/// blocks until all have run. Workers (min(threads, shards); threads = 0
/// means defaultThreadCount()) claim shards by dynamic ticket; each builds
/// one scratch with makeScratch() and reuses it for every shard it claims.
/// One worker runs inline on the calling thread; more run as one pool task
/// each. A shard that throws does not stop the others: after every shard
/// has run, the exception of the lowest-index failing shard is rethrown.
/// Callers that write only disjoint per-index output therefore get results
/// independent of the worker count and of the claim order.
template <typename MakeScratch, typename Body>
void forEachShard(std::size_t n, std::size_t shardSize, std::size_t threads,
                  MakeScratch makeScratch, Body body) {
  shardSize = std::max<std::size_t>(1, shardSize);
  const std::size_t nShards = n / shardSize + (n % shardSize != 0 ? 1 : 0);
  if (nShards == 0) {
    return;
  }
  const std::size_t workers = std::min(
      threads == 0 ? defaultThreadCount() : threads, nShards);
  std::atomic<std::size_t> ticket{0};
  std::mutex failureMutex;
  std::size_t failedShard = nShards;
  std::exception_ptr failure;
  const auto drain = [&] {
    auto scratch = makeScratch();
    for (;;) {
      const std::size_t s = ticket.fetch_add(1, std::memory_order_relaxed);
      if (s >= nShards) {
        return;
      }
      const std::size_t lo = s * shardSize;
      try {
        body(s, lo, std::min(n, lo + shardSize), scratch);
      } catch (...) {
        const std::lock_guard lock(failureMutex);
        if (s < failedShard) {
          failedShard = s;
          failure = std::current_exception();
        }
      }
    }
  };
  if (workers <= 1) {
    drain();
  } else {
    ThreadPool pool(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit(drain);
    }
    pool.wait();
  }
  if (failure) {
    std::rethrow_exception(failure);
  }
}

}  // namespace robust
