/// \file
/// Lock-free bounded multi-producer/single-consumer job queue for the
/// admission gateway. Producers never block and never take a lock: a batch
/// of items is claimed with one CAS on the (monotone, 64-bit) enqueue
/// cursor, written into Vyukov-style per-slot sequence cells, and published
/// per cell with a release store. The single consumer (a shard worker)
/// drains the contiguous published prefix in batches and advances its
/// cursor once per batch — the whole hot path is wait-free for the
/// consumer and lock-free for producers.
///
/// Memory-ordering argument (see docs/perf.md, "Shard scaling"):
///   * producer -> consumer: a producer writes `cell.value` and then
///     stores `cell.seq = pos + 1` with release; the consumer reads the
///     seq with acquire before touching the value. seqs are monotone per
///     cell (pos advances by capacity per lap), so a stale lap can never
///     alias a fresh publication.
///   * consumer -> producer: the consumer advances `tail_` with a release
///     store after it has moved the values out; a producer loads `tail_`
///     with acquire before claiming and only claims slots strictly below
///     `tail + capacity`, so its non-atomic write to `cell.value` is
///     ordered after the consumer's read of the previous lap.
///   * close vs claim: the closed flag lives in bit 63 of the enqueue
///     cursor itself, so close() (a fetch_or) and producer claims (CAS)
///     are totally ordered in one atomic's modification order. Every
///     claim that won the race against close() is below the cursor value
///     close() observed, and the consumer refuses to report
///     closed-and-drained until it has consumed *up to that cursor* —
///     an item whose try_push returned true is never lost (the
///     pop_batch_for contract test pins this).
///
/// The idle consumer parks on a futex (Linux) or a mutex+condvar
/// eventcount (elsewhere); producers only touch the parking path when the
/// consumer has registered itself as sleeping (a Dekker-style seq_cst
/// fence pair closes the lost-wakeup window), so the uncontended push is
/// purely atomics.
///
/// Capacity must be a power of two (slot = pos & mask). A non-power-of-two
/// capacity is rejected loudly — silently rounding a bound the operator
/// configured is how shed-rate math goes wrong.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#define SLACKSCHED_QUEUE_HAS_FUTEX 1
#else
#define SLACKSCHED_QUEUE_HAS_FUTEX 0
#endif

#include "common/expects.hpp"

namespace slacksched {

/// Result of a timed consumer pop: how many items were delivered, and
/// whether the queue is closed-and-drained (count == 0 then distinguishes
/// "shut down" from "timed out with nothing available").
struct PopOutcome {
  std::size_t count = 0;
  bool closed = false;
};

namespace detail {

/// Eventcount the single consumer parks on while the ring is empty.
/// Producers call notify() after publishing; the seq_cst fences on both
/// sides guarantee that either the producer observes the registered waiter
/// (and wakes it) or the consumer's recheck observes the published item —
/// the classic Dekker store-buffer argument, so a wakeup is never lost.
/// On Linux the sleep itself is a futex wait on the epoch word; elsewhere
/// a mutex+condvar pair provides the same semantics (the mutex is only
/// touched on the park/wake slow path, never on an uncontended push).
class ConsumerParker {
 public:
  /// Producer side, after publishing work (or closing): wake the consumer
  /// iff it is parked or about to park. The common no-waiter case is one
  /// fence and one relaxed load.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
#if SLACKSCHED_QUEUE_HAS_FUTEX
    epoch_.fetch_add(1, std::memory_order_release);
    syscall(SYS_futex, epoch_word(), FUTEX_WAKE_PRIVATE, INT32_MAX, nullptr,
            nullptr, 0);
#else
    {
      // Taking the mutex orders the epoch bump against the consumer's
      // predicate check inside wait_until: no wakeup can fall between
      // the check and the sleep.
      std::lock_guard<std::mutex> lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
#endif
  }

  /// Consumer side: sleep until notify() lands or `deadline` (when
  /// engaged) passes. `recheck` must return true when there is work;
  /// it is re-evaluated after waiter registration so a publication that
  /// raced the registration is never slept through.
  template <typename Recheck>
  void park(Recheck&& recheck,
            const std::optional<std::chrono::steady_clock::time_point>&
                deadline) {
    const std::uint32_t observed = epoch_.load(std::memory_order_acquire);
    waiters_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (recheck()) {
      waiters_.store(0, std::memory_order_relaxed);
      return;
    }
#if SLACKSCHED_QUEUE_HAS_FUTEX
    while (epoch_.load(std::memory_order_acquire) == observed) {
      struct timespec ts;
      struct timespec* ts_ptr = nullptr;
      if (deadline.has_value()) {
        const auto left = *deadline - std::chrono::steady_clock::now();
        if (left <= std::chrono::steady_clock::duration::zero()) break;
        const auto secs =
            std::chrono::duration_cast<std::chrono::seconds>(left);
        ts.tv_sec = static_cast<time_t>(secs.count());
        ts.tv_nsec = static_cast<long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(left - secs)
                .count());
        ts_ptr = &ts;
      }
      // EAGAIN (epoch already moved), EINTR and ETIMEDOUT all resolve in
      // the loop condition / deadline check above.
      syscall(SYS_futex, epoch_word(), FUTEX_WAIT_PRIVATE, observed, ts_ptr,
              nullptr, 0);
      if (deadline.has_value() &&
          std::chrono::steady_clock::now() >= *deadline) {
        break;
      }
    }
#else
    std::unique_lock<std::mutex> lock(mutex_);
    const auto changed = [this, observed] {
      return epoch_.load(std::memory_order_acquire) != observed;
    };
    if (deadline.has_value()) {
      cv_.wait_until(lock, *deadline, changed);
    } else {
      cv_.wait(lock, changed);
    }
#endif
    waiters_.store(0, std::memory_order_relaxed);
  }

 private:
#if SLACKSCHED_QUEUE_HAS_FUTEX
  /// FUTEX_WAIT compares a plain 32-bit word; the lock-free atomic's
  /// storage is exactly that word.
  std::uint32_t* epoch_word() {
    static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
    return reinterpret_cast<std::uint32_t*>(&epoch_);
  }
#endif

  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
#if !SLACKSCHED_QUEUE_HAS_FUTEX
  std::mutex mutex_;
  std::condition_variable cv_;
#endif
};

}  // namespace detail

/// Fixed-capacity lock-free ring with batch-claim on both sides: blocking
/// batch-pop for the single consumer, non-blocking single/batch push for
/// any number of producers. Capacity must be a power of two.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity)
      : mask_(capacity - 1), capacity_(capacity) {
    SLACKSCHED_EXPECTS(capacity >= 1);
    SLACKSCHED_EXPECTS((capacity & (capacity - 1)) == 0);
    // Zeroed storage is the initial state: seq 0 is "unpublished for lap
    // 0" (slot i publishes as i + 1) and no value is read before a
    // producer writes it. calloc hands back fresh pages untouched, so a
    // large ring costs no page faults until claims reach its cells; a
    // value-initializing new[] would fault in every cell up front.
    storage_.reset(std::calloc(capacity * sizeof(Cell) + alignof(Cell), 1));
    if (storage_ == nullptr) throw std::bad_alloc();
    const auto raw = reinterpret_cast<std::uintptr_t>(storage_.get());
    cells_ = std::launder(reinterpret_cast<Cell*>(
        (raw + alignof(Cell) - 1) & ~std::uintptr_t{alignof(Cell) - 1}));
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Attempts to enqueue. Returns false — without taking ownership — when
  /// the queue is full or closed; the caller decides how to degrade.
  [[nodiscard]] bool try_push(T item) {
    const std::size_t taken =
        try_push_batch_with(1, nullptr, [&item](std::size_t, T& slot) {
          slot = std::move(item);
        });
    return taken == 1;
  }

  /// Attempts to enqueue a span of items with one claim CAS. Stops at the
  /// first item that does not fit (or immediately when closed) and returns
  /// how many were taken; items are consumed from the front of `first` in
  /// order, so the caller re-submits or sheds the tail. When `closed` is
  /// non-null it reports whether the refusal (if any) was due to the queue
  /// being closed rather than full — the two demand different degradation
  /// (a closed shard is gone; a full one is backpressure).
  [[nodiscard]] std::size_t try_push_batch(T* first, std::size_t count,
                                           bool* closed = nullptr) {
    return try_push_batch_with(count, closed,
                               [first](std::size_t i, T& slot) {
                                 slot = std::move(first[i]);
                               });
  }

  /// Zero-copy batch enqueue: claims up to `count` contiguous slots with
  /// one CAS and invokes `write(i, slot)` to construct the i-th item
  /// directly in its ring cell — no staging buffer on the producer side.
  /// Same refusal semantics as try_push_batch. `write` runs outside any
  /// lock and must not throw.
  template <typename Writer>
  [[nodiscard]] std::size_t try_push_batch_with(std::size_t count,
                                                bool* closed, Writer&& write) {
    if (closed != nullptr) *closed = false;
    if (count == 0) return 0;
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t pos;
    std::size_t taken;
    do {
      if ((head & kClosedBit) != 0) {
        if (closed != nullptr) *closed = true;
        return 0;
      }
      pos = head;
      // The acquire load of tail_ is what licenses the non-atomic writes
      // below: every claimed slot is strictly below tail + capacity, so
      // the consumer has already moved the previous lap's value out.
      const std::uint64_t tail = tail_.load(std::memory_order_acquire);
      const std::size_t free_slots =
          capacity_ - static_cast<std::size_t>(pos - tail);
      taken = count < free_slots ? count : free_slots;
      if (taken == 0) return 0;  // full: backpressure, not blocking
    } while (!head_.compare_exchange_weak(head, pos + taken,
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed));
    for (std::size_t i = 0; i < taken; ++i) {
      Cell& cell = cells_[(pos + i) & mask_];
      write(i, cell.value);
      seq_of(cell).store(pos + i + 1, std::memory_order_release);
    }
    parker_.notify();
    return taken;
  }

  /// Consumer side: blocks until at least one item is available or the
  /// queue is closed-and-drained, then appends up to `max_items` to `out`
  /// in FIFO order. Returns the number popped; 0 means closed-and-drained
  /// (the consumer's signal to exit).
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    PopOutcome outcome;
    do {
      outcome = pop_wait(out, max_items, std::nullopt);
    } while (outcome.count == 0 && !outcome.closed);
    return outcome.count;
  }

  /// Timed variant of pop_batch for supervised consumers: waits at most
  /// `timeout` for an item, so the worker wakes periodically to publish a
  /// heartbeat even when the queue is idle — a supervisor can then tell a
  /// stalled consumer from an idle one. `outcome.count == 0 && !closed`
  /// means the wait timed out; `closed` means closed-and-drained.
  ///
  /// Contract pinned by tests/test_bounded_queue.cpp: a close() racing the
  /// wait yields `closed == true` only once the ring is *fully drained* —
  /// including items whose claim won the race against close() but whose
  /// publication had not yet landed when close() returned. Until then the
  /// call keeps delivering the backlog (or waits for the in-flight
  /// publication), never reporting a premature shutdown.
  PopOutcome pop_batch_for(std::vector<T>& out, std::size_t max_items,
                           std::chrono::milliseconds timeout) {
    return pop_wait(out, max_items,
                    std::chrono::steady_clock::now() + timeout);
  }

  /// pop_batch_for into a caller-owned array (e.g. a per-shard arena):
  /// writes up to `max_items` items starting at `out`, which must point to
  /// constructed, assignable T storage. Same timing/closed contract.
  PopOutcome pop_batch_for(T* out, std::size_t max_items,
                           std::chrono::milliseconds timeout) {
    return pop_wait_into(out, max_items,
                         std::chrono::steady_clock::now() + timeout);
  }

  /// Marks the queue closed: subsequent pushes fail, the consumer drains
  /// the remaining items and then sees pop_batch return 0. The closed bit
  /// lives in the enqueue cursor, so closing and claiming are totally
  /// ordered: no claim can slip in "after" close yet before the consumer's
  /// drained check.
  void close() {
    head_.fetch_or(kClosedBit, std::memory_order_acq_rel);
    parker_.notify();
  }

  /// Reopens a closed queue for a supervised restart. Requires the old
  /// consumer to have exited; items still buffered survive and are
  /// delivered to the new consumer.
  void reopen() {
    head_.fetch_and(~kClosedBit, std::memory_order_acq_rel);
  }

  /// Claimed-but-not-yet-consumed items (includes claims whose publication
  /// is still in flight). Approximate under concurrency, exact at rest.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>((head & ~kClosedBit) - tail);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] bool closed() const {
    return (head_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

 private:
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  // calloc's storage implicitly creates the cells only if Cell is an
  // implicit-lifetime type: hence a plain seq word behind std::atomic_ref
  // (std::atomic is not implicit-lifetime), and a T that is trivially
  // destructible (cells are freed, never destroyed) and an aggregate or
  // trivially default-constructible.
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(std::is_aggregate_v<T> ||
                std::is_trivially_default_constructible_v<T>);

  struct alignas(64) Cell {
    /// Publication word: `pos + 1` once the value for claim position `pos`
    /// is readable. Monotone across laps (pos advances by capacity), so a
    /// previous lap's publication can never be mistaken for this one.
    /// Accessed only through seq_of().
    alignas(std::atomic_ref<std::uint64_t>::required_alignment)
        std::uint64_t seq;
    T value;
  };

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  [[nodiscard]] static std::atomic_ref<std::uint64_t> seq_of(Cell& cell) {
    return std::atomic_ref<std::uint64_t>(cell.seq);
  }

  /// Number of contiguously published items from `tail`, capped at
  /// `max_items`. Consumer-only; the prefix can only grow concurrently.
  [[nodiscard]] std::size_t published_prefix(std::uint64_t tail,
                                             std::uint64_t head_pos,
                                             std::size_t max_items) const {
    std::size_t n = 0;
    const std::size_t limit =
        std::min<std::size_t>(max_items,
                              static_cast<std::size_t>(head_pos - tail));
    while (n < limit &&
           seq_of(cells_[(tail + n) & mask_])
                   .load(std::memory_order_acquire) == tail + n + 1) {
      ++n;
    }
    return n;
  }

  /// Moves exactly `n` published items out of the ring via `sink(i, T&&)`
  /// and advances the consumer cursor once.
  template <typename Sink>
  void consume(std::uint64_t tail, std::size_t n, Sink&& sink) {
    for (std::size_t i = 0; i < n; ++i) {
      sink(i, std::move(cells_[(tail + i) & mask_].value));
    }
    // Release: hands the consumed cells back to producers (their next
    // claim's tail acquire orders the value writes after our reads).
    tail_.store(tail + n, std::memory_order_release);
  }

  PopOutcome pop_wait(
      std::vector<T>& out, std::size_t max_items,
      const std::optional<std::chrono::steady_clock::time_point>& deadline) {
    const std::size_t base = out.size();
    out.resize(base + max_items);
    const PopOutcome outcome =
        pop_wait_into(out.data() + base, max_items, deadline);
    out.resize(base + outcome.count);
    return outcome;
  }

  PopOutcome pop_wait_into(
      T* out, std::size_t max_items,
      const std::optional<std::chrono::steady_clock::time_point>& deadline) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    while (true) {
      const std::uint64_t head = head_.load(std::memory_order_acquire);
      const std::uint64_t head_pos = head & ~kClosedBit;
      const std::size_t n = published_prefix(tail, head_pos, max_items);
      if (n > 0) {
        consume(tail, n, [out](std::size_t i, T&& v) {
          out[i] = std::move(v);
        });
        return PopOutcome{n, false};
      }
      // Closed-and-drained only once every claim below the close-time
      // cursor has been consumed. head_pos > tail with nothing published
      // means a producer is mid-publication: keep waiting (the publish
      // wakes us), never report a premature close.
      if ((head & kClosedBit) != 0 && head_pos == tail) {
        return PopOutcome{0, true};
      }
      bool ready = false;
      parker_.park(
          [&] {
            const std::uint64_t h = head_.load(std::memory_order_acquire);
            ready = published_prefix(tail, h & ~kClosedBit, 1) > 0 ||
                    ((h & kClosedBit) != 0 && (h & ~kClosedBit) == tail);
            return ready;
          },
          deadline);
      if (!ready && deadline.has_value() &&
          std::chrono::steady_clock::now() >= *deadline) {
        // One last look so a publication that raced the deadline is not
        // reported as an idle timeout.
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        const std::size_t late =
            published_prefix(tail, h & ~kClosedBit, max_items);
        if (late > 0) {
          consume(tail, late, [out](std::size_t i, T&& v) {
            out[i] = std::move(v);
          });
          return PopOutcome{late, false};
        }
        return PopOutcome{0, (h & kClosedBit) != 0 && (h & ~kClosedBit) == tail};
      }
    }
  }

  std::unique_ptr<void, FreeDeleter> storage_;
  Cell* cells_ = nullptr;  ///< storage_ rounded up to alignof(Cell)
  std::size_t mask_;
  std::size_t capacity_;
  /// Enqueue cursor (bit 63 = closed). Producers CAS-claim slot ranges.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  /// Dequeue cursor, written only by the consumer (once per batch).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) detail::ConsumerParker parker_;
};

}  // namespace slacksched
