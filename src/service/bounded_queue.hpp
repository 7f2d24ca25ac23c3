/// \file
/// Lock-free bounded multi-producer/single-consumer ring, and the job queue
/// of the admission gateway built on it. Producers never block and never
/// take a lock: a batch of items is claimed with one CAS on the (monotone,
/// 64-bit) enqueue cursor, written into Vyukov-style per-slot sequence
/// cells, and published per cell with a release store. The single consumer
/// drains the contiguous published prefix in batches and advances its
/// cursor once per batch — the whole hot path is wait-free for the
/// consumer and lock-free for producers.
///
/// BoundedRing<T> is that protocol and nothing else: it never parks, so
/// its push pays no fence. BoundedMpscQueue<T> (a shard's job queue) is a
/// BoundedRing plus the ConsumerParker its idle consumer sleeps on; the
/// decision trace ring (service/trace_ring.hpp) is a BoundedRing whose
/// reader polls.
///
/// Memory-ordering argument for BoundedRing (see docs/perf.md, "Shard
/// scaling"):
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
/// The queue's idle consumer parks on a futex; producers only touch the
/// parking path when the consumer has registered itself as sleeping (a
/// Dekker-style seq_cst fence pair closes the lost-wakeup window), so the
/// uncontended push is purely atomics plus that one fence. A producer may
/// also push without waking anyone and decide for itself whether the
/// consumer needs a notify() (the shard's combining hand-off does).
///
/// Capacity must be a power of two (slot = pos & mask). A non-power-of-two
/// capacity is rejected loudly — silently rounding a bound the operator
/// configured is how shed-rate math goes wrong.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expects.hpp"

namespace slacksched {

/// Result of a consumer pop: how many items were delivered, and whether
/// the ring is closed-and-drained (count == 0 then distinguishes "shut
/// down" from "nothing available").
struct PopOutcome {
  std::size_t count = 0;
  bool closed = false;
};

/// Fixed-capacity lock-free ring with batch-claim on both sides:
/// non-blocking single/batch push for any number of producers,
/// non-blocking batch pop for one consumer. Capacity must be a power of
/// two.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity)
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

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// Zero-copy batch enqueue: claims up to `count` contiguous slots with
  /// one CAS and invokes `write(i, slot)` to construct the i-th item
  /// directly in its ring cell — no staging buffer on the producer side.
  /// Stops at the first item that does not fit (or immediately when
  /// closed) and returns how many were taken. When `closed` is non-null it
  /// reports whether the refusal (if any) was due to the ring being closed
  /// rather than full. `write` runs outside any lock and must not throw.
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
    return taken;
  }

  /// Consumer side, never blocks: moves up to `max_items` published items
  /// into `out` (constructed, assignable T storage) in FIFO order.
  /// `closed` is reported only once every claim below the close-time
  /// cursor has been consumed; a claim whose publication is still in
  /// flight yields `{0, false}`, never a premature close.
  PopOutcome try_pop_batch(T* out, std::size_t max_items) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t head_pos = head & ~kClosedBit;
    const std::size_t n = published_prefix(tail, head_pos, max_items);
    if (n == 0) {
      return PopOutcome{0, (head & kClosedBit) != 0 && head_pos == tail};
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(cells_[(tail + i) & mask_].value);
    }
    // Release: hands the consumed cells back to producers (their next
    // claim's tail acquire orders the value writes after our reads).
    tail_.store(tail + n, std::memory_order_release);
    return PopOutcome{n, false};
  }

  /// True when try_pop_batch would deliver an item or report
  /// closed-and-drained. Exact for the consumer. Any other thread may ask
  /// too (it reads only atomics): while nobody consumes, the answer is
  /// exact up to publications still in flight; while someone does, a
  /// stale answer only means a wake-up the consumer did not need.
  [[nodiscard]] bool ready() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t head_pos = head & ~kClosedBit;
    return published_prefix(tail, head_pos, 1) > 0 ||
           ((head & kClosedBit) != 0 && head_pos == tail);
  }

  /// Marks the ring closed: subsequent pushes fail, the consumer drains the
  /// remaining items and then sees `closed`. The closed bit lives in the
  /// enqueue cursor, so closing and claiming are totally ordered: no claim
  /// can slip in "after" close yet before the consumer's drained check.
  void close() { head_.fetch_or(kClosedBit, std::memory_order_acq_rel); }

  /// Reopens a closed ring for a supervised restart. Requires the old
  /// consumer to have exited; items still buffered survive and are
  /// delivered to the new consumer.
  void reopen() { head_.fetch_and(~kClosedBit, std::memory_order_acq_rel); }

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

  std::unique_ptr<void, FreeDeleter> storage_;
  Cell* cells_ = nullptr;  ///< storage_ rounded up to alignof(Cell)
  std::size_t mask_;
  std::size_t capacity_;
  /// Enqueue cursor (bit 63 = closed). Producers CAS-claim slot ranges.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  /// Dequeue cursor, written only by the consumer (once per batch).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

namespace detail {

/// Eventcount the single consumer parks on while the ring is empty.
/// Producers call notify() after publishing; the seq_cst fences on both
/// sides guarantee that either the producer observes the registered waiter
/// (and wakes it) or the consumer's recheck observes the published item —
/// the classic Dekker store-buffer argument, so a wakeup is never lost.
/// The sleep itself is a futex wait on the epoch word.
class ConsumerParker {
 public:
  /// Producer side, after publishing work (or closing): wake the consumer
  /// iff it is parked or about to park. The common no-waiter case is one
  /// fence and one relaxed load.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    epoch_.fetch_add(1, std::memory_order_release);
    syscall(SYS_futex, epoch_word(), FUTEX_WAKE_PRIVATE, INT32_MAX, nullptr,
            nullptr, 0);
  }

  /// Consumer side: sleep until notify() lands or `deadline` passes.
  /// `recheck` must return true when there is work; it is re-evaluated
  /// after waiter registration so a publication that raced the
  /// registration is never slept through.
  template <typename Recheck>
  void park(Recheck&& recheck,
            std::chrono::steady_clock::time_point deadline) {
    const std::uint32_t observed = epoch_.load(std::memory_order_acquire);
    waiters_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (!recheck() &&
           epoch_.load(std::memory_order_acquire) == observed) {
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= std::chrono::steady_clock::duration::zero()) break;
      const auto secs = std::chrono::duration_cast<std::chrono::seconds>(left);
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(secs.count());
      ts.tv_nsec = static_cast<long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(left - secs)
              .count());
      // EAGAIN (epoch already moved), EINTR and ETIMEDOUT all resolve in
      // the loop condition / deadline check above.
      syscall(SYS_futex, epoch_word(), FUTEX_WAIT_PRIVATE, observed, &ts,
              nullptr, 0);
    }
    waiters_.store(0, std::memory_order_relaxed);
  }

 private:
  /// FUTEX_WAIT compares a plain 32-bit word; the lock-free atomic's
  /// storage is exactly that word.
  std::uint32_t* epoch_word() {
    static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
    return reinterpret_cast<std::uint32_t*>(&epoch_);
  }

  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace detail

/// A shard's job queue: a BoundedRing whose idle consumer parks, with a
/// timed batch pop. Capacity must be a power of two.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity) : ring_(capacity) {}

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

  /// BoundedRing::try_push_batch_with, then a wake-up for a parked
  /// consumer. With `wake` false the push leaves the consumer asleep: the
  /// caller must follow a push that took items with notify(), or consume
  /// them itself.
  template <typename Writer>
  [[nodiscard]] std::size_t try_push_batch_with(std::size_t count,
                                                bool* closed, Writer&& write,
                                                bool wake = true) {
    const std::size_t taken =
        ring_.try_push_batch_with(count, closed, std::forward<Writer>(write));
    if (taken > 0 && wake) parker_.notify();
    return taken;
  }

  /// Wakes the consumer iff it is parked or about to park (one seq_cst
  /// fence and one relaxed load when it is not).
  void notify() { parker_.notify(); }

  /// Consumer side: sleeps until `recheck()` holds, a notify() lands or
  /// `deadline` passes. `recheck` is evaluated after the consumer has
  /// registered as a waiter, behind a seq_cst fence, so whatever a
  /// notifier stored before its own fence is seen either by `recheck` or
  /// through the wake-up.
  template <typename Recheck>
  void park(Recheck&& recheck,
            std::chrono::steady_clock::time_point deadline) {
    parker_.park(std::forward<Recheck>(recheck), deadline);
  }

  /// BoundedRing::ready: try_pop_batch would deliver an item or report
  /// closed-and-drained.
  [[nodiscard]] bool ready() const { return ring_.ready(); }

  /// Consumer side for supervised consumers: waits at most `timeout` for
  /// an item, so the worker wakes periodically to publish a heartbeat even
  /// when the queue is idle — a supervisor can then tell a stalled
  /// consumer from an idle one. Writes up to `max_items` items starting at
  /// `out`, which must point to constructed, assignable T storage.
  /// `outcome.count == 0 && !closed` means the wait timed out; `closed`
  /// means closed-and-drained (the consumer's signal to exit).
  ///
  /// Contract pinned by tests/test_bounded_queue.cpp: a close() racing the
  /// wait yields `closed == true` only once the ring is *fully drained* —
  /// including items whose claim won the race against close() but whose
  /// publication had not yet landed when close() returned. Until then the
  /// call keeps delivering the backlog (or waits for the in-flight
  /// publication), never reporting a premature shutdown.
  PopOutcome pop_batch_for(T* out, std::size_t max_items,
                           std::chrono::milliseconds timeout) {
    PopOutcome outcome = ring_.try_pop_batch(out, max_items);
    if (outcome.count > 0 || outcome.closed) return outcome;
    // The clock is read only once the ring has come up empty.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      park([this] { return ring_.ready(); }, deadline);
      // After a wake-up or the deadline, one more look: a publication that
      // raced the deadline is delivered, not reported as an idle timeout.
      outcome = ring_.try_pop_batch(out, max_items);
      if (outcome.count > 0 || outcome.closed ||
          std::chrono::steady_clock::now() >= deadline) {
        return outcome;
      }
    }
  }

  /// BoundedRing::try_pop_batch: never parks.
  PopOutcome try_pop_batch(T* out, std::size_t max_items) {
    return ring_.try_pop_batch(out, max_items);
  }

  /// pop_batch_for appending to a vector.
  PopOutcome pop_batch_for(std::vector<T>& out, std::size_t max_items,
                           std::chrono::milliseconds timeout) {
    const std::size_t base = out.size();
    out.resize(base + max_items);
    const PopOutcome outcome =
        pop_batch_for(out.data() + base, max_items, timeout);
    out.resize(base + outcome.count);
    return outcome;
  }

  /// Marks the queue closed (BoundedRing::close) and wakes the consumer.
  void close() {
    ring_.close();
    parker_.notify();
  }

  void reopen() { ring_.reopen(); }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] bool closed() const { return ring_.closed(); }

 private:
  BoundedRing<T> ring_;
  alignas(64) detail::ConsumerParker parker_;
};

}  // namespace slacksched
