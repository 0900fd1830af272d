// A thread-safe LRU cache with single-flight insertion, keyed by problem
// identity in robustd's compile cache and the degradation-curve cache.
//
// getOrCompute(key, make) returns the resident value, or runs make()
// outside the lock. A caller whose key another caller is still computing
// waits for that computation and counts a hit, so concurrent callers of
// one new key compute it once. If make() throws, every waiting caller
// rethrows the same exception and nothing is cached. Capacity bounds the
// resident entries only: computations in flight are never evicted and not
// counted by size(). Values are copied out; keep large ones behind a
// shared_ptr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace robust::util {

template <class K, class V, class Hash = std::hash<K>>
class LruCache {
 public:
  struct Lookup {
    V value;
    bool hit = false;  ///< resident, or computed by a concurrent caller
    std::uint64_t evictions = 0;  ///< entries this lookup's insert evicted
  };

  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// The value for `key`: resident (touched MRU), awaited from another
  /// caller's make(), or computed by make() here and inserted MRU.
  template <class Make>
  Lookup getOrCompute(const K& key, Make&& make) {
    std::unique_lock lock(mutex_);
    if (const auto it = slots_.find(key); it != slots_.end()) {
      Slot& slot = it->second;
      if (slot.resident) {
        order_.splice(order_.begin(), order_, slot.order);
        return {slot.value.get(), true, 0};
      }
      const std::shared_future<V> pending = slot.value;
      lock.unlock();
      return {pending.get(), true, 0};
    }
    std::promise<V> promise;
    slots_.emplace(key, Slot{promise.get_future().share()});
    const std::uint64_t generation = generation_;
    lock.unlock();

    V value = [&]() -> V {
      try {
        return make();
      } catch (...) {
        lock.lock();
        if (generation == generation_) {
          slots_.erase(key);  // not cached: the next lookup computes again
        }
        lock.unlock();
        promise.set_exception(std::current_exception());
        throw;
      }
    }();
    promise.set_value(value);

    lock.lock();
    std::uint64_t evictions = 0;
    if (generation == generation_) {
      const auto it = slots_.find(key);
      it->second.resident = true;
      order_.push_front(&it->first);
      it->second.order = order_.begin();
      while (order_.size() > capacity_) {
        slots_.erase(slots_.find(*order_.back()));
        order_.pop_back();
        ++evictions;
      }
    }
    return {std::move(value), false, evictions};
  }

  /// Drops every entry. A computation in flight still answers the callers
  /// already waiting on it but is not inserted; later lookups recompute.
  void clear() {
    const std::lock_guard lock(mutex_);
    slots_.clear();
    order_.clear();
    ++generation_;
  }

  /// Resident entries (in-flight computations excluded).
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard lock(mutex_);
    return order_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::shared_future<V> value;
    typename std::list<const K*>::iterator order{};  ///< set once resident
    bool resident = false;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<K, Slot, Hash> slots_;  ///< resident and in flight
  std::list<const K*> order_;  ///< resident keys (node-stable), MRU first
  std::uint64_t generation_ = 0;  ///< bumped by clear()
};

}  // namespace robust::util
