#include "robust/util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"

namespace robust {

std::size_t parseThreadCount(const char* text) noexcept {
  if (text == nullptr || *text == '\0') {
    return 0;
  }
  // strtoul accepts leading whitespace and a sign (and wraps negatives);
  // require a bare digit string so "-3" and " 4" are rejected, not mangled.
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return 0;
    }
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || parsed == 0 || parsed > kMaxThreads) {
    return 0;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t defaultThreadCount() noexcept {
  static const std::size_t cached = [] {
    if (const std::size_t parsed = parseThreadCount(std::getenv("ROBUST_THREADS"))) {
      return parsed;
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }();
  return cached;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = defaultThreadCount();
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cvTask_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    ++inFlight_;
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kHighWater =
          obs::gaugeId("util.pool_queue_highwater");
      obs::maxGauge(kHighWater,
                    static_cast<std::int64_t>(queue_.size()));
    }
  }
  cvTask_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  cvDone_.wait(lock, [this] { return inFlight_ == 0; });
  if (failure_) {
    std::exception_ptr first = std::exchange(failure_, nullptr);
    lock.unlock();
    std::rethrow_exception(first);
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cvTask_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A throwing task must neither terminate the process nor skip the
    // inFlight_ bookkeeping (which would deadlock wait()); the first
    // escape is captured for wait() to rethrow.
    std::exception_ptr caught;
    const auto run = [&task, &caught] {
      try {
        task();
      } catch (...) {
        caught = std::current_exception();
      }
    };
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kTasks = obs::counterId("util.pool_tasks");
      static const obs::MetricId kLatency =
          obs::histogramId("util.pool_task_ns");
      const std::int64_t started = obs::detail::nowNanos();
      run();
      obs::addCounter(kTasks);
      obs::recordLatency(kLatency, obs::detail::nowNanos() - started);
    } else {
      run();
    }
    {
      std::lock_guard lock(mutex_);
      if (caught && !failure_) {
        failure_ = std::move(caught);
      }
      if (--inFlight_ == 0) {
        cvDone_.notify_all();
      }
    }
  }
}

}  // namespace robust
