// Bounded, blocking multi-producer multi-consumer queue.
//
// Feeds the pipeline engine's kernel thread, the service's per-tenant
// dispatch and the thread pool's workers. close() lets producers signal
// end-of-stream; pop() then drains remaining items and returns
// std::nullopt once empty.
//
// Locking: every member below is guarded by mutex_ (thread-safety analysis
// enforces this under clang); condition waits are predicate loops inside the
// locked region, and notifies run after an early MutexLock::unlock so a woken
// thread never bounces straight into a held lock.
#pragma once

#include <deque>
#include <optional>
#include <stdexcept>

#include "common/annotations.h"
#include "common/mutex.h"

namespace shredder {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("BoundedQueue: capacity 0");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while full. Returns false (item dropped) if the queue was closed.
  bool push(T item) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (items_.size() >= capacity_ && !closed_) not_full_.wait(mutex_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty and not closed. nullopt == closed and drained.
  std::optional<T> pop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (items_.empty() && !closed_) not_empty_.wait(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  // Non-blocking pop; nullopt when nothing available right now.
  std::optional<T> try_pop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  void close() EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace shredder
