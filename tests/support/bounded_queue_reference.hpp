// The original mutex+condvar bounded MPSC queue, retained verbatim as the
// differential oracle for the lock-free replacement
// (service/bounded_queue.hpp), like the other oracles in this directory:
// the torture suite replays identical operation sequences through both
// implementations and pins the delivered streams byte-identical
// (tests/test_bounded_queue.cpp). Not part of the shipped library.
//
// Producers never block: when the ring is full, try_push refuses and the
// caller sheds the job with an explicit backpressure status instead of
// stalling the ingest path. The single consumer (a shard worker) drains
// in batches, so one lock acquisition amortizes over many jobs.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "service/bounded_queue.hpp"  // PopOutcome (shared result type)

namespace slacksched {

/// Fixed-capacity ring buffer with timed batch-pop on the consumer side
/// and non-blocking push on the producer side.
template <typename T>
class BoundedMpscQueueReference {
 public:
  explicit BoundedMpscQueueReference(std::size_t capacity)
      : buffer_(capacity), capacity_(capacity) {
    SLACKSCHED_EXPECTS(capacity >= 1);
  }

  BoundedMpscQueueReference(const BoundedMpscQueueReference&) = delete;
  BoundedMpscQueueReference& operator=(const BoundedMpscQueueReference&) = delete;

  /// Attempts to enqueue. Returns false — without taking ownership — when
  /// the queue is full or closed; the caller decides how to degrade.
  [[nodiscard]] bool try_push(T item) {
    {
      std::unique_lock lock(mutex_);
      if (closed_ || size_ == capacity_) return false;
      buffer_[(head_ + size_) % capacity_] = std::move(item);
      ++size_;
    }
    cv_ready_.notify_one();
    return true;
  }

  /// Attempts to enqueue a span of items in one lock acquisition. Stops at
  /// the first item that does not fit (or immediately when closed) and
  /// returns how many were taken; items are consumed from the front of
  /// `first` in order, so the caller re-submits or sheds the tail. When
  /// `closed` is non-null it reports whether the refusal (if any) was due
  /// to the queue being closed rather than full — the two demand different
  /// degradation (a closed shard is gone; a full one is backpressure).
  [[nodiscard]] std::size_t try_push_batch(T* first, std::size_t count,
                                           bool* closed = nullptr) {
    std::size_t taken = 0;
    {
      std::unique_lock lock(mutex_);
      if (closed != nullptr) *closed = closed_;
      if (closed_) return 0;
      taken = std::min(count, capacity_ - size_);
      for (std::size_t i = 0; i < taken; ++i) {
        buffer_[(head_ + size_) % capacity_] = std::move(first[i]);
        ++size_;
      }
    }
    if (taken > 0) cv_ready_.notify_one();
    return taken;
  }

  /// Consumer side for supervised consumers: waits at most
  /// `timeout` for an item, so the worker wakes periodically to publish a
  /// heartbeat even when the queue is idle — a supervisor can then tell a
  /// stalled consumer from an idle one. `outcome.count == 0 && !closed`
  /// means the wait timed out; `closed` means closed-and-drained.
  PopOutcome pop_batch_for(std::vector<T>& out, std::size_t max_items,
                           std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    cv_ready_.wait_for(lock, timeout, [this] { return closed_ || size_ > 0; });
    const std::size_t n = std::min(size_, max_items);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(buffer_[head_]));
      head_ = (head_ + 1) % capacity_;
      --size_;
    }
    return PopOutcome{n, n == 0 && closed_};
  }

  /// Marks the queue closed: subsequent pushes fail, the consumer drains
  /// the remaining items and then sees pop_batch_for report closed.
  void close() {
    {
      std::unique_lock lock(mutex_);
      closed_ = true;
    }
    cv_ready_.notify_all();
  }

  /// Reopens a closed queue for a supervised restart. Requires the old
  /// consumer to have exited; items still buffered survive and are
  /// delivered to the new consumer.
  void reopen() {
    std::unique_lock lock(mutex_);
    closed_ = false;
  }

  [[nodiscard]] std::size_t size() const {
    std::unique_lock lock(mutex_);
    return size_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] bool closed() const {
    std::unique_lock lock(mutex_);
    return closed_;
  }

 private:
  std::vector<T> buffer_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
  mutable std::mutex mutex_;
  std::condition_variable cv_ready_;
};

}  // namespace slacksched
