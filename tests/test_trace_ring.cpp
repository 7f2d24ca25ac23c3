// Tests for the lock-free decision trace ring: FIFO drain, wraparound,
// the drop-on-full counter, globally shared sequence numbers, CSV round
// trips, and a multi-writer/concurrent-drain race (run under TSan in CI).
#include "service/trace_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics_registry.hpp"

namespace slacksched {
namespace {

TraceEvent decision_event(JobId id, int shard, bool accepted) {
  TraceEvent e;
  e.job_id = id;
  e.shard = static_cast<std::int16_t>(shard);
  e.kind = accepted ? Outcome::kAccepted : Outcome::kRejected;
  e.latency_bin = 3;
  e.fsync_class = static_cast<std::uint8_t>(FsyncPolicy::kBatch);
  return e;
}

TEST(TraceRing, DrainsInFifoOrderWithAssignedSeqs) {
  TraceRing ring(8);
  for (JobId id = 0; id < 5; ++id) {
    EXPECT_TRUE(ring.record(decision_event(id, 0, true)));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain(out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].job_id, static_cast<JobId>(i));
    EXPECT_EQ(out[i].seq, i);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, RejectsNonPowerOfTwoCapacity) {
  // The ring is the shard queue's BoundedRing: a capacity is a bound the
  // operator chose, never silently rounded.
  EXPECT_THROW(TraceRing(0), PreconditionError);
  EXPECT_THROW(TraceRing(3), PreconditionError);
  EXPECT_THROW(TraceRing(5), PreconditionError);
  EXPECT_EQ(TraceRing(1).capacity(), 1u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
}

TEST(TraceRing, FullRingDropsAndCounts) {
  TraceRing ring(4);  // capacity exactly 4
  for (JobId id = 0; id < 4; ++id) {
    EXPECT_TRUE(ring.record(decision_event(id, 0, true)));
  }
  EXPECT_FALSE(ring.record(decision_event(100, 0, true)));
  EXPECT_FALSE(ring.record(decision_event(101, 0, true)));
  EXPECT_EQ(ring.dropped(), 2u);

  // The first four events survived untouched; the drops never overwrote.
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain(out), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].job_id, static_cast<JobId>(i));
  }

  // Dropped events do not consume sequence numbers: the next recorded
  // event continues the dense seq stream.
  EXPECT_TRUE(ring.record(decision_event(200, 0, false)));
  out.clear();
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].seq, 4u);
  EXPECT_EQ(out[0].job_id, 200);
}

TEST(TraceRing, WrapsAroundManyGenerations) {
  TraceRing ring(4);
  std::vector<TraceEvent> out;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.record(decision_event(2 * round, 1, true)));
    ASSERT_TRUE(ring.record(decision_event(2 * round + 1, 1, false)));
    out.clear();
    ASSERT_EQ(ring.drain(out), 2u);
    EXPECT_EQ(out[0].job_id, 2 * round);
    EXPECT_EQ(out[1].job_id, 2 * round + 1);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, SharedSeqMergesRingsIntoOneTotalOrder) {
  std::atomic<std::uint64_t> shared{0};
  TraceRing a(8, &shared);
  TraceRing b(8, &shared);
  ASSERT_TRUE(a.record(decision_event(10, 0, true)));
  ASSERT_TRUE(b.record(decision_event(20, 1, true)));
  ASSERT_TRUE(a.record(decision_event(11, 0, false)));
  std::vector<TraceEvent> merged;
  a.drain(merged);
  b.drain(merged);
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].job_id, 10);
  EXPECT_EQ(merged[1].job_id, 20);
  EXPECT_EQ(merged[2].job_id, 11);
  EXPECT_EQ(shared.load(), 3u);
}

TEST(TraceRing, ConcurrentWritersAccountForEveryEvent) {
  // Several producers race into a deliberately small ring while one
  // consumer drains concurrently: every produced event is either drained
  // exactly once or counted as dropped, per-writer order is preserved,
  // and no seq is duplicated. This suite runs under TSan in CI.
  constexpr int kWriters = 4;
  constexpr JobId kPerWriter = 10000;
  TraceRing ring(256);

  std::atomic<bool> done{false};
  std::vector<TraceEvent> drained;
  std::thread consumer([&] {
    std::vector<TraceEvent> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      ring.drain(batch);
      drained.insert(drained.end(), batch.begin(), batch.end());
      std::this_thread::yield();
    }
    batch.clear();
    ring.drain(batch);  // final sweep after all writers stopped
    drained.insert(drained.end(), batch.begin(), batch.end());
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (JobId i = 0; i < kPerWriter; ++i) {
        ring.record(decision_event(w * kPerWriter + i, w, i % 2 == 0));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(drained.size() + ring.dropped(),
            static_cast<std::size_t>(kWriters) * kPerWriter);
  EXPECT_GT(drained.size(), 0u);

  std::set<std::uint64_t> seqs;
  std::vector<JobId> last_per_writer(kWriters, -1);
  for (const TraceEvent& e : drained) {
    EXPECT_TRUE(seqs.insert(e.seq).second) << "duplicate seq " << e.seq;
    const auto w = static_cast<std::size_t>(e.job_id / kPerWriter);
    ASSERT_LT(w, static_cast<std::size_t>(kWriters));
    // A single writer's surviving events drain in the order it wrote them.
    EXPECT_GT(e.job_id, last_per_writer[w]);
    last_per_writer[w] = e.job_id;
  }
}

TEST(TraceCsv, RoundTripsEveryFieldIncludingSentinels) {
  std::vector<TraceEvent> events;
  TraceEvent d = decision_event(42, 3, true);
  d.seq = 7;
  events.push_back(d);
  TraceEvent r;
  r.seq = 8;
  r.job_id = 43;
  r.shard = 1;
  r.kind = Outcome::kRejectedRetryAfter;  // refused: no latency, no WAL
  events.push_back(r);
  TraceEvent c;
  c.seq = 9;
  c.job_id = 44;
  c.shard = 2;
  c.kind = Outcome::kRejectedCriticality;
  events.push_back(c);
  TraceEvent edge = decision_event(45, 0, false);  // every range's edge
  edge.seq = std::numeric_limits<std::uint64_t>::max();
  edge.shard = std::numeric_limits<std::int16_t>::max();
  edge.latency_bin = static_cast<std::uint8_t>(kAdmitLatencyBins - 1);
  events.push_back(edge);

  std::ostringstream out;
  write_trace_csv(out, events);
  std::istringstream in(out.str());
  const std::vector<TraceEvent> back = read_trace_csv(in);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "row " << i;
  }
}

TEST(TraceCsv, RejectsMalformedInput) {
  {
    std::istringstream in("not,a,trace\n");
    EXPECT_THROW((void)read_trace_csv(in), PreconditionError);
  }
  {
    // The old 7-column header (the router's shard before the recording
    // one), with a row it would have read.
    std::istringstream in(
        "seq,job_id,home_"
        "shard,shard,kind,latency_bin,fsync\n"
        "0,1,0,0,accepted,3,-\n");
    EXPECT_THROW((void)read_trace_csv(in), PreconditionError);
  }
  {
    std::istringstream in(
        "seq,job_id,shard,kind,latency_bin,fsync\n"
        "0,1,0,accepted,3\n");
    EXPECT_THROW((void)read_trace_csv(in), PreconditionError);
  }
  // Cells that a narrowing parse would silently wrap: a latency bin past
  // the uint8 range, below zero (it would alias the "-" sentinel) or past
  // the last admit-latency bin; a signed seq; a shard past int16 or below
  // 0. Kinds no trace records: an unknown one, the retired "failover", the
  // pre-unification "shed", and the ingest results "enqueued" and
  // "invalid".
  for (const char* row :
       {"0,1,0,accepted,300,-", "0,1,0,accepted,-1,-", "0,1,0,accepted,28,-",
        "-1,1,0,accepted,3,-", "0,1,70000,accepted,3,-",
        "0,1,-1,accepted,3,-", "0,1,0,exploded,-,-", "0,1,0,failover,-,-",
        "0,1,0,shed,-,-", "0,1,0,enqueued,-,-", "0,1,0,invalid,-,-"}) {
    SCOPED_TRACE(row);
    std::istringstream in(
        std::string("seq,job_id,shard,kind,latency_bin,fsync\n") + row +
        "\n");
    EXPECT_THROW((void)read_trace_csv(in), PreconditionError);
  }
}

}  // namespace
}  // namespace slacksched
