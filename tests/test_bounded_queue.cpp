// Torture and differential suite for the lock-free bounded MPSC ring
// (service/bounded_queue.hpp: BoundedRing and the parked-consumer
// BoundedMpscQueue built on it). The concurrent tests here are the ones the
// TSan CI matrix runs against the queue: multi-producer close/drain races,
// batch-claim wraparound at the smallest legal capacities, and the
// close-racing-a-timed-wait drain contract. The retired mutex+condvar
// queue (tests/support/bounded_queue_reference.hpp) serves as the differential
// oracle: identical operation sequences must produce identical return
// values and identical delivered streams.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "service/bounded_queue.hpp"

#include "bounded_queue_reference.hpp"

namespace slacksched {
namespace {

// Bounds every wait that must end on an item or a close: a broken ring
// fails the test instead of hanging it.
constexpr auto kWait = std::chrono::seconds(5);

// ---------- construction ----------

TEST(BoundedQueue, RejectsNonPowerOfTwoCapacity) {
  // The ring indexes slots with a mask; silently rounding an operator's
  // bound up would skew shed-rate math, so odd capacities fail loudly.
  EXPECT_THROW(BoundedMpscQueue<int>(0), PreconditionError);
  EXPECT_THROW(BoundedMpscQueue<int>(3), PreconditionError);
  EXPECT_THROW(BoundedMpscQueue<int>(6), PreconditionError);
  EXPECT_THROW(BoundedMpscQueue<int>(3000), PreconditionError);
  EXPECT_NO_THROW(BoundedMpscQueue<int>(1));
  EXPECT_NO_THROW(BoundedMpscQueue<int>(2));
  EXPECT_NO_THROW(BoundedMpscQueue<int>(4096));
}

// Runs one full lap through a fresh `Ring` of `cells` slots, consuming
// through `pop(ring, out, max_items, timeout)`: nothing may be delivered
// while the lap is claimed but unpublished, then the whole lap in FIFO
// order.
template <typename Ring, typename Pop>
void run_one_lap_over_fresh_storage(int lap, std::size_t cells, Pop pop) {
  Ring q(cells);
  std::vector<int> early;
  const PopOutcome idle = pop(q, early, cells, std::chrono::milliseconds(1));
  EXPECT_EQ(idle.count, 0u);
  EXPECT_FALSE(idle.closed);

  // The writer runs after the batch is claimed and before any of its
  // cells is published: a consumer looking then must find nothing, and
  // a close landing then must not read as closed-and-drained.
  const std::size_t taken = q.try_push_batch_with(
      cells, nullptr, [&](std::size_t i, int& slot) {
        if (i == 0) {
          q.close();
          const PopOutcome seen =
              pop(q, early, cells, std::chrono::milliseconds(0));
          EXPECT_EQ(seen.count, 0u);
          EXPECT_FALSE(seen.closed) << "closed with a claim in flight";
        }
        slot = lap * static_cast<int>(cells) + static_cast<int>(i);
      });
  ASSERT_EQ(taken, cells);
  ASSERT_TRUE(early.empty()) << early.size() << " unpublished cells popped";

  std::vector<int> out;
  // Bounded wait: a ring whose cursor a stale pop advanced must fail
  // here, not hang.
  ASSERT_EQ(pop(q, out, cells, kWait).count, cells);
  for (std::size_t i = 0; i < cells; ++i) {
    ASSERT_EQ(out[i], lap * static_cast<int>(cells) + static_cast<int>(i))
        << "FIFO broke at " << i;
  }
  EXPECT_TRUE(pop(q, out, cells, kWait).closed);  // now drained
}

TEST(BoundedQueue, RingOverRecycledStorageStartsUnpublished) {
  // A ring's cells come from zeroed storage, never from whatever a dead
  // ring left behind. Each ring here runs exactly one full lap and dies,
  // so the next same-size ring very likely reuses storage whose cells
  // hold the very seqs its own lap 0 publishes (slot i -> i + 1). Without
  // zeroing, a claimed but not yet written cell would read as published.
  // The queue's timed pop and the bare ring's try_pop_batch (the trace
  // ring's drain) alternate over the same storage.
  constexpr std::size_t kCells = 4096;
  for (int lap = 0; lap < 4; ++lap) {
    SCOPED_TRACE("lap " + std::to_string(lap));
    run_one_lap_over_fresh_storage<BoundedMpscQueue<int>>(
        lap, kCells,
        [](BoundedMpscQueue<int>& q, std::vector<int>& out, std::size_t max,
           std::chrono::milliseconds timeout) {
          return q.pop_batch_for(out, max, timeout);
        });
    run_one_lap_over_fresh_storage<BoundedRing<int>>(
        lap, kCells,
        [](BoundedRing<int>& ring, std::vector<int>& out, std::size_t max,
           std::chrono::milliseconds) {
          const std::size_t base = out.size();
          out.resize(base + max);
          const PopOutcome got = ring.try_pop_batch(out.data() + base, max);
          out.resize(base + got.count);
          return got;
        });
  }
}

// ---------- single-threaded semantics ----------

TEST(BoundedQueue, RefusesWhenFull) {
  BoundedMpscQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.try_push(4));
  EXPECT_FALSE(q.try_push(5));  // full: backpressure, not blocking
  EXPECT_EQ(q.size(), 4u);
}

TEST(BoundedQueue, PopBatchIsFifo) {
  BoundedMpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch_for(out, 3, kWait).count, 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.pop_batch_for(out, 10, kWait).count, 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedQueue, WrapsAroundTheRing) {
  BoundedMpscQueue<int> q(4);
  std::vector<int> out;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(q.try_push(2 * round));
    EXPECT_TRUE(q.try_push(2 * round + 1));
    out.clear();
    EXPECT_EQ(q.pop_batch_for(out, 4, kWait).count, 2u);
    EXPECT_EQ(out, (std::vector<int>{2 * round, 2 * round + 1}));
  }
}

TEST(BoundedQueue, CloseDrainsThenSignalsExit) {
  BoundedMpscQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));  // closed refuses new work
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch_for(out, 4, kWait).count, 1u);  // backlog still drains
  const PopOutcome done = q.pop_batch_for(out, 4, kWait);
  EXPECT_EQ(done.count, 0u);  // then the exit signal
  EXPECT_TRUE(done.closed);
}

TEST(BoundedQueue, TryPushBatchTakesWhatFits) {
  BoundedMpscQueue<int> q(4);
  std::vector<int> items{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(q.try_push_batch(items.data(), items.size()), 4u);
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch_for(out, 6, kWait).count, 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

TEST(BoundedQueue, TryPushBatchWithConstructsInPlace) {
  // The zero-copy writer builds each item directly in its claimed cell:
  // the value observed by the consumer is whatever the writer produced,
  // with no staging buffer in between.
  BoundedMpscQueue<int> q(8);
  bool closed = true;
  const std::size_t taken = q.try_push_batch_with(
      5, &closed, [](std::size_t i, int& slot) {
        slot = static_cast<int>(100 + i);
      });
  EXPECT_EQ(taken, 5u);
  EXPECT_FALSE(closed);
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch_for(out, 8, kWait).count, 5u);
  EXPECT_EQ(out, (std::vector<int>{100, 101, 102, 103, 104}));

  q.close();
  EXPECT_EQ(q.try_push_batch_with(1, &closed,
                                  [](std::size_t, int& slot) { slot = 0; }),
            0u);
  EXPECT_TRUE(closed);
}

TEST(BoundedQueue, PopBlocksUntilPush) {
  BoundedMpscQueue<int> q(2);
  std::vector<int> out;
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(q.try_push(42));
  });
  // Waits for the producer.
  EXPECT_EQ(q.pop_batch_for(out, 1, kWait).count, 1u);
  EXPECT_EQ(out, (std::vector<int>{42}));
  producer.join();
}

// ---------- timed pop, reopen ----------

TEST(BoundedQueue, PopBatchForTimesOutOnAnIdleQueue) {
  BoundedMpscQueue<int> q(4);
  std::vector<int> out;
  const PopOutcome idle = q.pop_batch_for(out, 4, std::chrono::milliseconds(5));
  EXPECT_EQ(idle.count, 0u);
  EXPECT_FALSE(idle.closed);  // timed out, not shut down

  ASSERT_TRUE(q.try_push(9));
  const PopOutcome hit = q.pop_batch_for(out, 4, std::chrono::milliseconds(5));
  EXPECT_EQ(hit.count, 1u);
  EXPECT_FALSE(hit.closed);
  EXPECT_EQ(out, (std::vector<int>{9}));

  q.close();
  const PopOutcome done = q.pop_batch_for(out, 4, std::chrono::milliseconds(5));
  EXPECT_EQ(done.count, 0u);
  EXPECT_TRUE(done.closed);  // closed-and-drained: the exit signal
}

TEST(BoundedQueue, PopBatchForWakesWhenAProducerArrives) {
  BoundedMpscQueue<int> q(2);
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(q.try_push(42));
  });
  std::vector<int> out;
  // Generous timeout: the wait must end on the push, not the deadline.
  const PopOutcome got = q.pop_batch_for(out, 1, std::chrono::seconds(10));
  EXPECT_EQ(got.count, 1u);
  EXPECT_EQ(out, (std::vector<int>{42}));
  producer.join();
}

TEST(BoundedQueue, RawPointerPopMatchesVectorOverload) {
  // The shard's consumer loop uses the raw-pointer overload; it must
  // deliver the same stream with the same outcome semantics.
  BoundedMpscQueue<int> q(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(i));
  int buffer[8] = {};
  const PopOutcome first =
      q.pop_batch_for(buffer, 4, std::chrono::milliseconds(5));
  EXPECT_EQ(first.count, 4u);
  EXPECT_FALSE(first.closed);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(buffer[i], i);
  q.close();
  const PopOutcome rest =
      q.pop_batch_for(buffer, 8, std::chrono::milliseconds(5));
  EXPECT_EQ(rest.count, 2u);
  EXPECT_FALSE(rest.closed);  // items delivered this call: not the signal
  EXPECT_EQ(buffer[0], 4);
  EXPECT_EQ(buffer[1], 5);
  const PopOutcome done =
      q.pop_batch_for(buffer, 8, std::chrono::milliseconds(5));
  EXPECT_EQ(done.count, 0u);
  EXPECT_TRUE(done.closed);
}

TEST(BoundedQueue, TryPushBatchReportsClosedDistinctFromFull) {
  BoundedMpscQueue<int> q(2);
  std::vector<int> items{1, 2, 3};
  bool closed = true;
  EXPECT_EQ(q.try_push_batch(items.data(), items.size(), &closed), 2u);
  EXPECT_FALSE(closed);  // tail shed because full
  q.close();
  EXPECT_EQ(q.try_push_batch(items.data(), items.size(), &closed), 0u);
  EXPECT_TRUE(closed);  // tail shed because closed
}

TEST(BoundedQueue, ReopenAcceptsNewWorkAndKeepsTheBacklog) {
  BoundedMpscQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1));
  q.close();
  EXPECT_FALSE(q.try_push(2));
  q.reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.try_push(2));  // accepted again
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch_for(out, 4, kWait).count, 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));  // backlog survived the cycle
}

// ---------- wraparound torture at the smallest capacities ----------

TEST(BoundedQueue, CapacityOneWrapsThroughManyLaps) {
  // Capacity 1 exercises the per-cell lap arithmetic hardest: every push
  // reuses the same cell, so a stale seq from lap k must never satisfy the
  // consumer's check for lap k+1.
  BoundedMpscQueue<int> q(1);
  EXPECT_EQ(q.capacity(), 1u);
  std::vector<int> out;
  for (int lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(q.try_push(lap));
    EXPECT_FALSE(q.try_push(lap + 1000000));  // full at one item
    out.clear();
    EXPECT_EQ(q.pop_batch_for(out, 4, kWait).count, 1u);
    EXPECT_EQ(out, (std::vector<int>{lap}));
  }
}

TEST(BoundedQueue, CapacityOneConcurrentHandoff) {
  // One producer, one consumer, capacity 1: pure ping-pong through a
  // single cell. Order and exactly-once delivery must survive.
  constexpr int kItems = 20000;
  BoundedMpscQueue<int> q(1);
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
    q.close();
  });
  std::vector<int> delivered;
  delivered.reserve(kItems);
  std::vector<int> batch;
  while (true) {
    batch.clear();
    const PopOutcome popped =
        q.pop_batch_for(batch, 8, std::chrono::milliseconds(50));
    delivered.insert(delivered.end(), batch.begin(), batch.end());
    if (popped.closed) break;
  }
  producer.join();
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
}

TEST(BoundedQueue, CapacityTwoMultiProducerWraparound) {
  // Two racing producers against a two-slot ring: batch claims constantly
  // straddle the wrap boundary. Each producer's stream must stay in order
  // (MPSC guarantees per-producer FIFO) and arrive exactly once.
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 10000;
  BoundedMpscQueue<std::uint32_t> q(2);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto value = static_cast<std::uint32_t>(
            (static_cast<std::uint32_t>(p) << 24) |
            static_cast<std::uint32_t>(i));
        while (!q.try_push(value)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint32_t> delivered;
  delivered.reserve(kProducers * kPerProducer);
  std::vector<std::uint32_t> batch;
  while (delivered.size() <
         static_cast<std::size_t>(kProducers) * kPerProducer) {
    batch.clear();
    (void)q.pop_batch_for(batch, 2, std::chrono::milliseconds(50));
    delivered.insert(delivered.end(), batch.begin(), batch.end());
  }
  for (auto& t : producers) t.join();

  std::vector<std::uint32_t> next(kProducers, 0);
  for (const std::uint32_t value : delivered) {
    const std::size_t p = value >> 24;
    const std::uint32_t seq = value & 0xFFFFFFu;
    ASSERT_LT(p, static_cast<std::size_t>(kProducers));
    EXPECT_EQ(seq, next[p]) << "producer " << p << " stream out of order";
    next[p] = seq + 1;
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<std::size_t>(p)],
              static_cast<std::uint32_t>(kPerProducer));
  }
}

// ---------- close/drain races ----------

TEST(BoundedQueue, CloseDrainTortureDeliversEveryAcceptedItemExactlyOnce) {
  // Racing producers push unique values while the queue is closed midway;
  // the consumer must deliver exactly the accepted set, each value once,
  // and the exit signal must fire exactly when the backlog is drained.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  BoundedMpscQueue<int> q(64);

  std::vector<std::vector<int>> accepted(kProducers);
  std::atomic<int> running{kProducers};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        if (q.try_push(value)) {
          accepted[static_cast<std::size_t>(p)].push_back(value);
        } else if (q.closed()) {
          break;  // shard gone: a real producer stops submitting
        }
        // On a full queue: drop and continue (backpressure shed).
      }
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  std::vector<int> delivered;
  std::vector<int> batch;
  std::size_t wakeups = 0;
  while (true) {
    batch.clear();
    const PopOutcome popped =
        q.pop_batch_for(batch, 32, std::chrono::milliseconds(2));
    ++wakeups;
    delivered.insert(delivered.end(), batch.begin(), batch.end());
    if (popped.closed) break;
    // Close midway: some producers are still pushing when the shutter falls.
    if (wakeups == 50) q.close();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(running.load(), 0);
  EXPECT_TRUE(q.closed());

  std::vector<int> pushed;
  for (const auto& per_producer : accepted) {
    pushed.insert(pushed.end(), per_producer.begin(), per_producer.end());
  }
  std::sort(pushed.begin(), pushed.end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, pushed);  // every accepted item, exactly once
  EXPECT_TRUE(std::adjacent_find(delivered.begin(), delivered.end()) ==
              delivered.end());
}

TEST(BoundedQueue, CloseRacingTimedWaitReportsClosedOnlyAfterFullDrain) {
  // The satellite contract: when close() races a pop_batch_for wait, the
  // consumer may time out, may deliver items, but may report closed only
  // once *every* accepted item — including ones whose claim won the race
  // against close() but published late — has been delivered. Repeat many
  // rounds so the close lands at many different phases of the wait.
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    BoundedMpscQueue<int> q(8);
    std::atomic<int> accepted_count{0};
    std::thread producer([&] {
      for (int i = 0; i < 64; ++i) {
        if (q.try_push(i)) {
          accepted_count.fetch_add(1, std::memory_order_relaxed);
        } else if (q.closed()) {
          break;
        }
      }
    });
    std::thread closer([&q, round] {
      // Vary the close phase: sometimes immediate, sometimes mid-drain.
      if (round % 3 != 0) std::this_thread::yield();
      q.close();
    });

    std::vector<int> delivered;
    std::vector<int> batch;
    while (true) {
      batch.clear();
      const PopOutcome popped =
          q.pop_batch_for(batch, 4, std::chrono::milliseconds(1));
      delivered.insert(delivered.end(), batch.begin(), batch.end());
      if (popped.closed) {
        // Closed was reported: the ring must be fully drained *at this
        // moment* — nothing accepted may still be buffered.
        EXPECT_EQ(q.size(), 0u);
        EXPECT_EQ(popped.count, 0u);
        break;
      }
    }
    producer.join();
    closer.join();
    // Every item whose try_push returned true was delivered: the closed
    // signal never ate an accepted item.
    EXPECT_EQ(delivered.size(),
              static_cast<std::size_t>(
                  accepted_count.load(std::memory_order_relaxed)))
        << "round " << round;
  }
}

// ---------- differential: lock-free ring vs mutex oracle ----------

// Replays one seeded operation stream through both queues, asserting every
// return value identical and the delivered streams byte-identical.
void run_differential_stream(std::uint64_t seed) {
  constexpr std::size_t kCapacity = 8;
  BoundedMpscQueue<int> ring(kCapacity);
  BoundedMpscQueueReference<int> oracle(kCapacity);
  Rng rng(seed);

  std::vector<int> ring_out;
  std::vector<int> oracle_out;
  int next_value = 0;
  for (int op = 0; op < 2000; ++op) {
    switch (rng.uniform_int(0, 6)) {
      case 0: {  // single push
        const int v = next_value++;
        EXPECT_EQ(ring.try_push(v), oracle.try_push(v)) << "op " << op;
        break;
      }
      case 1: {  // batch push
        const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 12));
        std::vector<int> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = next_value++;
        bool ring_closed = false;
        bool oracle_closed = false;
        EXPECT_EQ(ring.try_push_batch(a.data(), n, &ring_closed),
                  oracle.try_push_batch(b.data(), n, &oracle_closed))
            << "op " << op;
        EXPECT_EQ(ring_closed, oracle_closed) << "op " << op;
        break;
      }
      case 2:
      case 3: {  // timed pop (the only pop that cannot deadlock when idle)
        const std::size_t max_items = 1 + rng.uniform_int(0, 5);
        const PopOutcome r = ring.pop_batch_for(
            ring_out, max_items, std::chrono::milliseconds(1));
        const PopOutcome o = oracle.pop_batch_for(
            oracle_out, max_items, std::chrono::milliseconds(1));
        EXPECT_EQ(r.count, o.count) << "op " << op;
        EXPECT_EQ(r.closed, o.closed) << "op " << op;
        break;
      }
      case 4: {  // close (occasionally)
        if (rng.uniform_int(0, 3) == 0) {
          ring.close();
          oracle.close();
        }
        break;
      }
      case 5: {  // reopen (occasionally)
        if (rng.uniform_int(0, 3) == 0) {
          ring.reopen();
          oracle.reopen();
        }
        break;
      }
      case 6: {  // non-blocking pop: the oracle's zero-timeout wait
        const std::size_t max_items = 1 + rng.uniform_int(0, 5);
        int buffer[6] = {};
        const PopOutcome r = ring.try_pop_batch(buffer, max_items);
        ring_out.insert(ring_out.end(), buffer, buffer + r.count);
        const PopOutcome o = oracle.pop_batch_for(
            oracle_out, max_items, std::chrono::milliseconds(0));
        EXPECT_EQ(r.count, o.count) << "op " << op;
        EXPECT_EQ(r.closed, o.closed) << "op " << op;
        break;
      }
    }
    EXPECT_EQ(ring.size(), oracle.size()) << "op " << op;
    EXPECT_EQ(ring.closed(), oracle.closed()) << "op " << op;
  }
  // Drain both completely and compare the full delivered streams.
  ring.close();
  oracle.close();
  while (true) {
    const PopOutcome r =
        ring.pop_batch_for(ring_out, 16, std::chrono::milliseconds(1));
    const PopOutcome o =
        oracle.pop_batch_for(oracle_out, 16, std::chrono::milliseconds(1));
    EXPECT_EQ(r.count, o.count);
    EXPECT_EQ(r.closed, o.closed);
    if (r.closed || o.closed) break;
  }
  EXPECT_EQ(ring_out, oracle_out) << "seed " << seed;
}

TEST(BoundedQueueDifferential, OpStreamsMatchTheMutexOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_differential_stream(seed);
  }
}

}  // namespace
}  // namespace slacksched
