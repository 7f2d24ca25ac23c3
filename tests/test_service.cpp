// Tests for the service subsystem: the shard router, the metrics
// registry, and the gateway's backpressure and violation semantics. The
// bounded MPSC queue has its own torture/differential suite in
// tests/test_bounded_queue.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "sched/validator.hpp"
#include "service/gateway.hpp"
#include "workload/generators.hpp"

// Counting global operator new for Gateway.SteadyStateIngestDoesNotAllocate:
// only allocations made on a thread that armed the counter are counted, so
// the shard consumer threads' decision records do not show up.
namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_count_allocations) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* block = operator new(size, std::nothrow)) return block;
  throw std::bad_alloc();
}
// Not inlined: a delete-expression inlined down to free() trips GCC's
// -Wmismatched-new-delete, although the pair is matched here.
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block,
                                       const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace slacksched {
namespace {

Job make_job(JobId id, TimePoint r, Duration p, TimePoint d) {
  Job j;
  j.id = id;
  j.release = r;
  j.proc = p;
  j.deadline = d;
  return j;
}

// ---------- ShardRouter ----------

TEST(Router, RoundRobinCycles) {
  ShardRouter router(RoutingPolicy::kRoundRobin, 3);
  Job j = make_job(1, 0.0, 1.0, 2.0);
  std::vector<int> seen;
  for (int i = 0; i < 7; ++i) seen.push_back(router.route(j));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 0, 1, 2, 0}));
  router.reset();
  EXPECT_EQ(router.route(j), 0);
}

TEST(Router, HashIsDeterministicAndInRange) {
  ShardRouter a(RoutingPolicy::kHash, 5);
  ShardRouter b(RoutingPolicy::kHash, 5);
  for (JobId id = 0; id < 1000; ++id) {
    const Job j = make_job(id, 0.0, 1.0, 2.0);
    const int shard = a.route(j);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 5);
    EXPECT_EQ(shard, b.route(j));  // order/state independent
  }
}

TEST(Router, HashSpreadsSequentialIds) {
  ShardRouter router(RoutingPolicy::kHash, 4);
  std::vector<int> counts(4, 0);
  for (JobId id = 0; id < 4000; ++id) {
    ++counts[static_cast<std::size_t>(
        router.route(make_job(id, 0.0, 1.0, 2.0)))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly balanced (expected 1000 per shard)
    EXPECT_LT(c, 1300);
  }
}

TEST(Router, SingleShardAlwaysZero) {
  ShardRouter router(RoutingPolicy::kHash, 1);
  EXPECT_EQ(router.route(make_job(123456, 0.0, 1.0, 2.0)), 0);
}

// ---------- MetricsRegistry ----------

TEST(MetricsRegistry, CountsAndAggregates) {
  MetricsRegistry registry(2);
  registry.on_enqueued(0, 3);
  registry.on_enqueued(1);
  registry.on_backpressure(0, 2);
  registry.on_batch(0, 3);
  registry.on_decision(0, 5.0, true, 1e-5);
  registry.on_decision(0, 2.0, false, 1e-4);
  registry.on_decision(1, 1.5, true, 1e-3);
  // Mixed classes on shard 1.
  registry.on_enqueued(1, 2, Criticality::kCritical);
  registry.on_enqueued(1, 1, Criticality::kStandard);
  registry.on_decision(1, 3.0, true, 1e-2, Criticality::kCritical);
  registry.on_decision(1, 4.0, false, 1e-6, Criticality::kStandard);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  EXPECT_EQ(snap.shards[0].enqueued, 3u);
  EXPECT_EQ(snap.shards[0].backpressure_rejected, 2u);
  EXPECT_EQ(snap.shards[0].peak_queue_depth, 3u);
  EXPECT_EQ(snap.shards[0].queue_depth, 0u);
  EXPECT_EQ(snap.shards[0].accepted, 1u);
  EXPECT_EQ(snap.shards[0].rejected, 1u);
  EXPECT_DOUBLE_EQ(snap.shards[0].accepted_volume, 5.0);
  EXPECT_DOUBLE_EQ(snap.shards[0].rejected_volume, 2.0);
  EXPECT_EQ(snap.shards[0].batches, 1u);
  EXPECT_EQ(snap.shards[1].peak_queue_depth, 4u);

  EXPECT_EQ(snap.total.enqueued, 7u);
  EXPECT_EQ(snap.total.submitted, 5u);
  EXPECT_EQ(snap.total.accepted, 3u);
  EXPECT_EQ(snap.total.backpressure_rejected, 2u);
  EXPECT_DOUBLE_EQ(snap.total.accepted_volume, 9.5);

  // Every decision landed in the merged latency histogram.
  EXPECT_EQ(snap.admit_latency.total_count(), 5u);

  // Each count is stored once, per class: every class-blind total, per
  // shard and in the aggregate row, equals the sum over the classes.
  std::vector<ShardMetricsSnapshot> rows = snap.shards;
  rows.push_back(snap.total);
  for (const ShardMetricsSnapshot& row : rows) {
    std::size_t enqueued = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
      enqueued += row.class_enqueued[cls];
      accepted += row.class_accepted[cls];
      rejected += row.class_rejected[cls];
    }
    EXPECT_EQ(row.enqueued, enqueued);
    EXPECT_EQ(row.accepted, accepted);
    EXPECT_EQ(row.rejected, rejected);
    EXPECT_EQ(row.submitted, accepted + rejected);
  }
  double latency_sum = 0.0;
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    latency_sum += snap.class_latency_sum[cls];
  }
  EXPECT_DOUBLE_EQ(snap.total.latency_sum_seconds, latency_sum);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    std::uint64_t count = 0;
    for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
      count += snap.class_latency_bins[cls][bin];
    }
    EXPECT_EQ(snap.admit_latency.count_in_bin(bin), count) << "bin " << bin;
  }
}

TEST(MetricsRegistry, LatencyClampsIntoRange) {
  MetricsRegistry registry(1);
  registry.on_decision(0, 1.0, true, 0.0);    // below the lowest edge
  registry.on_decision(0, 1.0, true, 100.0);  // above the highest edge
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.admit_latency.total_count(), 2u);
  EXPECT_EQ(snap.admit_latency.count_in_bin(0), 1u);
  EXPECT_EQ(snap.admit_latency.count_in_bin(kAdmitLatencyBins - 1), 1u);
}

TEST(MetricsRegistry, SnapshotCopiesLatencyBinsExactly) {
  // Regression: snapshot() used to rebuild the merged histogram by
  // depositing synthetic values at geometric bin centers — a lossy float
  // round trip one ULP away from the wrong bin. Depositing exactly on
  // every bin's lower edge is the adversarial case: any re-search that
  // rounds down by one ULP lands the count one bin too low.
  MetricsRegistry registry(2);
  const Histogram reference = Histogram::logarithmic(
      kAdmitLatencyLo, kAdmitLatencyHi, kAdmitLatencyBins);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    const double edge = reference.bin_range(bin).first;
    EXPECT_EQ(registry.latency_bin(edge), bin);
    registry.on_decision(static_cast<int>(bin % 2), 1.0, true, edge);
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.admit_latency.total_count(), kAdmitLatencyBins);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    EXPECT_EQ(snap.admit_latency.count_in_bin(bin), 1u)
        << "count deposited in bin " << bin << " leaked to a neighbor";
  }
}

TEST(MetricsRegistry, PeakQueueDepthAggregatesAsMaxNotSum) {
  // Regression: the aggregate peak used to SUM per-shard high-water
  // marks, reporting a backlog that never existed at any single instant.
  MetricsRegistry registry(2);
  registry.on_enqueued(0, 3);  // shard 0 peak: 3
  registry.on_batch(0, 3);
  registry.on_enqueued(1, 5);  // shard 1 peak: 5
  registry.on_batch(1, 5);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.shards[0].peak_queue_depth, 3u);
  EXPECT_EQ(snap.shards[1].peak_queue_depth, 5u);
  EXPECT_EQ(snap.total.peak_queue_depth, 5u);
  EXPECT_EQ(snap.total.queue_depth, 0u);
}

TEST(MetricsRegistry, LatencySumAccumulatesPerShardAndTotal) {
  MetricsRegistry registry(2);
  registry.on_decision(0, 1.0, true, 1e-5);
  registry.on_decision(0, 1.0, false, 2e-5);
  registry.on_decision(1, 1.0, true, 5e-4);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.shards[0].latency_sum_seconds, 3e-5);
  EXPECT_DOUBLE_EQ(snap.shards[1].latency_sum_seconds, 5e-4);
  EXPECT_DOUBLE_EQ(snap.total.latency_sum_seconds, 3e-5 + 5e-4);
}

// ---------- gateway: backpressure ----------

/// Accept-everything scheduler that burns wall time per decision, so a
/// fast producer outruns the consumer and hits the bounded queue.
class SlowScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const TimePoint start = std::max(frontier_, job.release);
    frontier_ = start + job.proc;
    return Decision::accept(0, start);
  }
  int machines() const override { return 1; }
  void reset() override { frontier_ = 0.0; }
  std::string name() const override { return "Slow"; }

 private:
  TimePoint frontier_ = 0.0;
};

TEST(Gateway, QueueFullIsExplicitNeverSilent) {
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 2;  // tiny on purpose
  config.batch_size = 2;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<SlowScheduler>(); });

  const int n = 200;
  int enqueued = 0;
  int shed = 0;
  for (JobId id = 0; id < n; ++id) {
    // Loose deadlines: the slow scheduler accepts whatever arrives.
    const Outcome status =
        gateway.submit(make_job(id, 0.0, 1.0, 1e9));
    if (status == Outcome::kEnqueued) {
      ++enqueued;
    } else {
      ASSERT_EQ(status, Outcome::kRejectedQueueFull);
      EXPECT_NE(describe(status).find("backpressure"), std::string::npos);
      ++shed;
    }
  }
  // The producer outruns a 200us-per-decision consumer through a 2-slot
  // queue: some jobs must be shed, and every job is accounted for.
  EXPECT_GT(shed, 0);
  EXPECT_EQ(enqueued + shed, n);

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.metrics.total.backpressure_rejected,
            static_cast<std::size_t>(shed));
  EXPECT_EQ(result.metrics.total.enqueued, static_cast<std::size_t>(enqueued));
  // Everything enqueued was decided; nothing vanished.
  EXPECT_EQ(result.merged.submitted, static_cast<std::size_t>(enqueued));
}

TEST(Gateway, SubmitAfterFinishIsRejectedClosed) {
  GatewayConfig config;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  (void)gateway.finish();
  EXPECT_EQ(gateway.submit(make_job(1, 0.0, 1.0, 5.0)),
            Outcome::kRejectedClosed);
  const std::vector<Job> jobs{make_job(2, 0.0, 1.0, 5.0)};
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult batch = gateway.submit_batch(jobs, statuses);
  EXPECT_EQ(batch.rejected_closed, 1u);
  EXPECT_EQ(statuses[0], Outcome::kRejectedClosed);
}

// ---------- gateway: multi-shard processing ----------

TEST(Gateway, HashRoutedShardsProcessEverything) {
  WorkloadConfig wconfig;
  wconfig.n = 3000;
  wconfig.seed = 11;
  const Instance instance = generate_workload(wconfig);

  GatewayConfig config;
  config.shards = 4;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = std::bit_ceil(instance.size());  // no shedding here
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  const BatchSubmitResult batch = gateway.submit_batch(instance.jobs());
  EXPECT_EQ(batch.enqueued, instance.size());
  EXPECT_EQ(batch.rejected_queue_full, 0u);

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, instance.size());
  EXPECT_EQ(result.merged.accepted + result.merged.rejected, instance.size());

  // Each shard's committed schedule is independently legal against the
  // merged instance (placed jobs are a subset with identical parameters).
  std::size_t decisions = 0;
  for (const RunResult& shard : result.shards) {
    EXPECT_TRUE(validate_schedule(instance, shard.schedule).ok);
    decisions += shard.decisions.size();
  }
  EXPECT_EQ(decisions, instance.size());  // every job decided exactly once

  // The live registry agrees with the merged engine metrics.
  EXPECT_EQ(result.metrics.total.submitted, result.merged.submitted);
  EXPECT_EQ(result.metrics.total.accepted, result.merged.accepted);
  EXPECT_DOUBLE_EQ(result.metrics.total.accepted_volume,
                   result.merged.accepted_volume);
  EXPECT_EQ(result.metrics.total.queue_depth, 0u);
  EXPECT_EQ(result.metrics.admit_latency.total_count(),
            result.merged.submitted);
}

TEST(Gateway, ConcurrentProducersAccountForEveryJob) {
  GatewayConfig config;
  config.shards = 2;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = 64;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<std::size_t> enqueued{0};
  std::atomic<std::size_t> shed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&gateway, &enqueued, &shed, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const JobId id = static_cast<JobId>(p * kPerProducer + i);
        const Outcome status =
            gateway.submit(make_job(id, 0.0, 1.0, 1e9));
        if (status == Outcome::kEnqueued) {
          ++enqueued;
        } else {
          ++shed;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(enqueued + shed, kProducers * kPerProducer);
  EXPECT_EQ(result.merged.submitted, enqueued.load());
  EXPECT_EQ(result.metrics.total.backpressure_rejected, shed.load());
}

// ---------- gateway: commitment violations ----------

/// Commits every job at its release on machine 0: from the second arrival
/// on, the interval overlaps the first commitment.
class CheatingScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    ++seen_;
    return Decision::accept(0, job.release);
  }
  int machines() const override { return 1; }
  void reset() override { seen_ = 0; }
  std::string name() const override { return "Cheater"; }

 private:
  int seen_ = 0;
};

TEST(Gateway, HaltsPoisonedShardAndReportsViolation) {
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 16;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<CheatingScheduler>(); });
  for (JobId id = 1; id <= 5; ++id) {
    // Retry on transient backpressure; the shard keeps draining even after
    // it halts, so this always terminates.
    while (gateway.submit(make_job(id, 0.0, 2.0, 100.0)) !=
           Outcome::kEnqueued) {
      std::this_thread::yield();
    }
  }
  const GatewayResult result = gateway.finish();
  EXPECT_FALSE(result.clean());
  EXPECT_NE(result.first_violation().find("overlaps"), std::string::npos);
  // Halted at the violation, exactly like run_online: one commitment.
  EXPECT_EQ(result.shards[0].metrics.accepted, 1u);
}

// ---------- closed-tail vs backpressure accounting ----------

TEST(Shard, BatchOnAClosedQueueIsClosedNotBackpressure) {
  // A batch can race finish() and find its target's queue already closed.
  // The refusal must say closed, not full: backpressure tells the caller
  // to retry a shard that is gone.
  MetricsRegistry metrics(1);
  Shard shard(
      0, [] { return std::make_unique<GreedyScheduler>(2); }, ShardConfig{},
      metrics);
  shard.start();
  shard.close();

  std::vector<Job> jobs;
  for (JobId id = 0; id < 6; ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 100.0));
  }
  const Shard::BatchEnqueueResult pushed = shard.try_enqueue_batch(
      jobs.data(), nullptr, jobs.size(), Shard::Clock::now());
  EXPECT_EQ(pushed.taken, 0u);
  EXPECT_TRUE(pushed.closed);
  EXPECT_EQ(metrics.snapshot().total.backpressure_rejected, 0u);
  shard.join();
}

TEST(Gateway, BatchTailOnAFullQueueIsStillBackpressure) {
  // The complementary case: a live shard with a tiny queue and a slow
  // consumer sheds the tail as rejected_queue_full, never rejected_closed.
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  config.supervisor.enabled = false;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<SlowScheduler>(); });

  std::vector<Job> jobs;
  for (JobId id = 0; id < 32; ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 1000.0));
  }
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult result = gateway.submit_batch(
      std::span<const Job>(jobs.data(), jobs.size()), statuses);
  EXPECT_EQ(result.rejected_closed, 0u);
  EXPECT_GT(result.rejected_queue_full, 0u);
  EXPECT_EQ(result.enqueued + result.rejected_queue_full, jobs.size());
  (void)gateway.finish();
}

// ---------- gateway: one ingest path ----------

TEST(Gateway, SteadyStateIngestDoesNotAllocate) {
  // A lone job is a batch of one: submit(), submit_batch(1) and
  // submit_batch(256) share one path, and in steady state none of them
  // touches the heap on the producer thread.
  GatewayConfig config;
  config.shards = 2;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = std::size_t{1} << 16;
  config.supervisor.enabled = false;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  constexpr std::size_t kBatch = 256;
  constexpr int kRounds = 20;
  std::vector<Job> jobs;
  for (JobId id = 0; id < static_cast<JobId>((kBatch + 2) * (kRounds + 1));
       ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 1e9));
  }
  std::size_t next = 0;
  const auto one_round = [&](std::array<std::size_t, 3>& counts) {
    t_allocations = 0;
    t_count_allocations = true;
    (void)gateway.submit(jobs[next++]);
    t_count_allocations = false;
    counts[0] += t_allocations;

    t_allocations = 0;
    t_count_allocations = true;
    (void)gateway.submit_batch(std::span<const Job>(&jobs[next++], 1));
    t_count_allocations = false;
    counts[1] += t_allocations;

    t_allocations = 0;
    t_count_allocations = true;
    (void)gateway.submit_batch(std::span<const Job>(&jobs[next], kBatch));
    t_count_allocations = false;
    counts[2] += t_allocations;
    next += kBatch;
  };
  std::array<std::size_t, 3> warm_up{};
  one_round(warm_up);  // grows this thread's grouping scratch once
  std::array<std::size_t, 3> counts{};
  for (int round = 0; round < kRounds; ++round) one_round(counts);
  EXPECT_EQ(counts[0], 0u) << "submit allocated";
  EXPECT_EQ(counts[1], 0u) << "submit_batch(1) allocated";
  EXPECT_EQ(counts[2], 0u) << "submit_batch(256) allocated";

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, next);
}

}  // namespace
}  // namespace slacksched
