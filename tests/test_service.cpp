// Tests for the service subsystem: the shard router, the metrics
// registry, and the gateway's backpressure and violation semantics. The
// bounded MPSC queue has its own torture/differential suite in
// tests/test_bounded_queue.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "baselines/random_admission.hpp"
#include "common/rng.hpp"
#include "core/threshold.hpp"
#include "models/delta_commit.hpp"
#include "net/admission_server.hpp"
#include "replication/failover.hpp"
#include "sched/validator.hpp"
#include "service/gateway.hpp"
#include "support/gateway_capture.hpp"
#include "workload/generators.hpp"

// Counting global operator new for Gateway.SteadyStateIngestDoesNotAllocate:
// only allocations made on a thread that armed the counter are counted, so
// the shard consumer threads' decision records do not show up.
namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

// Not inlined, neither the news nor the deletes: a new-expression inlined
// down to malloc(), or a delete-expression inlined down to free(), trips
// GCC's -Wmismatched-new-delete, although the pairs are matched here.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (t_count_allocations) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* block = operator new(size, std::nothrow)) return block;
  throw std::bad_alloc();
}
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

TEST(MetricsRegistry, LatencyBinEqualsUpperBoundOverTheEdges) {
  // latency_bin reads a per-exponent table and compares at most two
  // edges; it must answer what a std::upper_bound over the same edges
  // does, clamped into the bins, for every double.
  MetricsRegistry registry(1);
  const Histogram reference = Histogram::logarithmic(
      kAdmitLatencyLo, kAdmitLatencyHi, kAdmitLatencyBins);
  std::vector<double> edges;
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    edges.push_back(reference.bin_range(bin).first);
  }
  edges.push_back(reference.bin_range(kAdmitLatencyBins - 1).second);
  const auto expected_bin = [&](double seconds) {
    const auto raw =
        std::upper_bound(edges.begin(), edges.end(), seconds) - edges.begin();
    if (raw <= 0) return std::size_t{0};
    return std::min(static_cast<std::size_t>(raw - 1), kAdmitLatencyBins - 1);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {0.0,   -0.0,  -1.0,   5e-324, 1e-12,
                                1e300, kInf,  -kInf,  std::nan(""),
                                -std::nan("")};
  for (const double edge : edges) {
    probes.push_back(edge);
    probes.push_back(std::nextafter(edge, 0.0));
    probes.push_back(std::nextafter(edge, kInf));
  }
  Rng rng(0xB1Au);
  for (int i = 0; i < 100000; ++i) {
    probes.push_back(std::pow(10.0, rng.uniform(-30.0, 5.0)));
  }
  for (const double probe : probes) {
    ASSERT_EQ(registry.latency_bin(probe), expected_bin(probe))
        << "latency " << probe;
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
  explicit SlowScheduler(
      std::chrono::microseconds delay = std::chrono::microseconds(200))
      : delay_(delay) {}
  Decision on_arrival(const Job& job) override {
    std::this_thread::sleep_for(delay_);
    const TimePoint start = std::max(frontier_, job.release);
    frontier_ = start + job.proc;
    return Decision::accept(0, start);
  }
  int machines() const override { return 1; }
  void reset() override { frontier_ = 0.0; }
  std::string name() const override { return "Slow"; }

 private:
  std::chrono::microseconds delay_;
  TimePoint frontier_ = 0.0;
};

/// Holds a shard's consumer role away from the test thread: the first job
/// the wrapped scheduler sees blocks in on_arrival until `released`, so
/// whoever decides it (a helper's combining submit, or the worker) keeps
/// the role, and the test thread's own submits on that shard only queue.
struct RoleGate {
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};
};

class GatedScheduler final : public OnlineScheduler {
 public:
  GatedScheduler(std::unique_ptr<OnlineScheduler> inner, RoleGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}
  Decision on_arrival(const Job& job) override {
    if (!gated_) {
      gated_ = true;
      gate_->entered.store(true, std::memory_order_release);
      while (!gate_->released.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return inner_->on_arrival(job);
  }
  int machines() const override { return inner_->machines(); }
  void reset() override { inner_->reset(); }
  std::string name() const override { return "Gated"; }

 private:
  std::unique_ptr<OnlineScheduler> inner_;
  RoleGate* gate_;
  bool gated_ = false;
};

/// Submits `job` on a helper thread and returns that thread once the job's
/// decision holds the role inside `gate`. Open the gate, then join it;
/// `status` is the helper's submit outcome.
std::thread hold_role(AdmissionGateway& gateway, const Job& job,
                      RoleGate& gate, Outcome& status) {
  std::thread holder([&gateway, job, &status] { status = gateway.submit(job); });
  while (!gate.entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return holder;
}

TEST(Gateway, QueueFullIsExplicitNeverSilent) {
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 2;  // tiny on purpose
  config.batch_size = 2;
  RoleGate gate;
  AdmissionGateway gateway(config, [&gate](int) {
    return std::make_unique<GatedScheduler>(std::make_unique<SlowScheduler>(),
                                            &gate);
  });

  const int n = 200;
  int enqueued = 0;
  int shed = 0;
  const auto account = [&](Outcome status) {
    if (status == Outcome::kEnqueued) {
      ++enqueued;
    } else {
      ASSERT_EQ(status, Outcome::kRejectedQueueFull);
      EXPECT_NE(describe(status).find("backpressure"), std::string::npos);
      ++shed;
    }
  };
  // Job 0 holds the consumer role on a helper thread while this thread
  // offers the rest (loose deadlines: the slow scheduler accepts whatever
  // arrives).
  Outcome first = Outcome::kRejectedClosed;
  std::thread holder =
      hold_role(gateway, make_job(0, 0.0, 1.0, 1e9), gate, first);
  for (JobId id = 1; id < n; ++id) {
    account(gateway.submit(make_job(id, 0.0, 1.0, 1e9)));
  }
  gate.released.store(true, std::memory_order_release);
  holder.join();
  account(first);
  // The producer outruns a held consumer through a 2-slot queue: some
  // jobs must be shed, and every job is accounted for.
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

TEST(Gateway, InvalidJobIsRefusedAloneAtIngest) {
  // One job of the batch has no processing time: no scheduler may see it.
  // It alone is refused; its valid neighbours are decided in order.
  GatewayConfig config;
  config.shards = 1;
  ShardDecisionLogs logs;
  capture_decisions(config, logs);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<ThresholdScheduler>(0.1, 4); });

  std::vector<Job> jobs;
  for (JobId id = 0; id < 8; ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 10.0));
  }
  jobs[3].proc = 0.0;
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult batch = gateway.submit_batch(jobs, statuses);
  EXPECT_EQ(batch.rejected_invalid, 1u);
  EXPECT_EQ(batch.enqueued, 7u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(statuses[i],
              i == 3 ? Outcome::kRejectedInvalid : Outcome::kEnqueued)
        << "job " << i;
  }

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.errors.empty()) << result.errors.front();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.metrics.total.submitted, 7u);
  ASSERT_EQ(logs[0].size(), 7u);
  for (std::size_t k = 0; k < logs[0].size(); ++k) {
    EXPECT_EQ(logs[0][k].job.id, static_cast<JobId>(k < 3 ? k : k + 1));
  }
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
  ShardDecisionLogs logs;
  capture_decisions(config, logs);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  const BatchSubmitResult batch = gateway.submit_batch(instance.jobs());
  EXPECT_EQ(batch.enqueued, instance.size());
  EXPECT_EQ(batch.rejected_queue_full, 0u);

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, instance.size());
  EXPECT_EQ(result.merged.accepted + result.merged.rejected, instance.size());

  // Each shard's full schedule, rebuilt from the decisions it notified, is
  // independently legal against the merged instance (placed jobs are a
  // subset with identical parameters), and its frontiers are the shard's
  // marks.
  ASSERT_EQ(logs.size(), result.shards.size());
  for (std::size_t s = 0; s < logs.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    Schedule rebuilt(2);
    for (const DecisionRecord& record : logs[s]) {
      if (!record.decision.accepted) continue;
      rebuilt.commit(record.job, record.decision.machine,
                     record.decision.start);
    }
    EXPECT_TRUE(validate_schedule(instance, rebuilt).ok);
    expect_marks_match(result.shards[s].busy_until, rebuilt);
    EXPECT_EQ(result.shards[s].metrics.makespan, rebuilt.makespan());
  }
  // Every job decided exactly once, as notified through on_decision.
  std::set<JobId> decided;
  for (const auto& log : logs) {
    for (const DecisionRecord& record : log) {
      EXPECT_TRUE(decided.insert(record.job.id).second) << record.job.id;
    }
  }
  EXPECT_EQ(decided.size(), instance.size());

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

/// Commits the first job on machine 0 at `first_start` and every later job
/// at its release. With `first_start` at the release, the second interval
/// overlaps the first commitment; with it later, the second job starts in
/// the idle gap before machine 0's busy-until mark.
class CheatingScheduler final : public OnlineScheduler {
 public:
  explicit CheatingScheduler(TimePoint first_start)
      : first_start_(first_start) {}
  Decision on_arrival(const Job& job) override {
    return Decision::accept(0, seen_++ == 0 ? first_start_ : job.release);
  }
  int machines() const override { return 1; }
  void reset() override { seen_ = 0; }
  std::string name() const override { return "Cheater"; }

 private:
  TimePoint first_start_;
  int seen_ = 0;
};

TEST(Gateway, HaltsPoisonedShardAndReportsViolation) {
  struct Case {
    const char* what;
    TimePoint first_start;
  };
  for (const Case& c : {Case{"overlap", 0.0},
                        Case{"idle gap before the mark", 10.0}}) {
    SCOPED_TRACE(c.what);
    GatewayConfig config;
    config.shards = 1;
    config.queue_capacity = 16;
    AdmissionGateway gateway(config, [&c](int) {
      return std::make_unique<CheatingScheduler>(c.first_start);
    });
    for (JobId id = 1; id <= 5; ++id) {
      // Retry on transient backpressure; the shard keeps draining even
      // after it halts, so this always terminates.
      while (gateway.submit(make_job(id, 0.0, 2.0, 100.0)) !=
             Outcome::kEnqueued) {
        std::this_thread::yield();
      }
    }
    const GatewayResult result = gateway.finish();
    EXPECT_FALSE(result.clean());
    EXPECT_NE(result.first_violation().find("overlaps"), std::string::npos)
        << result.first_violation();
    // Halted at the violation, exactly like run_online: one commitment.
    EXPECT_EQ(result.shards[0].metrics.accepted, 1u);
  }
}

// ---------- the served model ----------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "slacksched_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Gateway, RefusesDeferredAndRelatedSpeedSchedulersAtEveryEntryPoint) {
  constexpr int kMachines = 4;
  const ShardSchedulerFactory threshold = [=](int) {
    return std::make_unique<ThresholdScheduler>(0.1, kMachines);
  };
  // A valid replica directory: the log of a served Threshold shard, which
  // a served scheduler promotes.
  GatewayConfig replica;
  replica.wal_dir = fresh_dir("served_model");
  {
    AdmissionGateway leader(replica, threshold);
    for (JobId id = 1; id <= 20; ++id) {
      const double r = static_cast<double>(id);
      ASSERT_EQ(leader.submit(make_job(id, r, 1.0, r + 10.0)),
                Outcome::kEnqueued);
    }
    ASSERT_TRUE(leader.finish().clean());
  }
  ASSERT_TRUE(repl::promote_replica(replica, threshold).ok);

  DeltaCommitConfig admission;
  admission.machines = kMachines;
  admission.commit_on_admission = true;
  ThresholdConfig two_tier;
  two_tier.machines = kMachines;
  two_tier.speeds = SpeedProfile::two_tier(kMachines, 1, 4.0);
  struct Refused {
    std::string reason;
    ShardSchedulerFactory factory;
  };
  const std::vector<Refused> refused = {
      {"commitment model is 'delta'",
       [=](int) {
         return std::make_unique<DeltaCommitScheduler>(0.5, kMachines);
       }},
      {"commitment model is 'on-admission'",
       [=](int) { return std::make_unique<DeltaCommitScheduler>(admission); }},
      {"related machines (two-tier",
       [=](int) { return std::make_unique<ThresholdScheduler>(two_tier); }},
      {"related machines (geometric",
       [=](int) {
         return std::make_unique<GreedyScheduler>(
             SpeedProfile::geometric(kMachines, 0.75));
       }},
  };
  for (const Refused& model : refused) {
    SCOPED_TRACE(model.reason);
    const std::string name = model.factory(0)->name();
    const auto expect_reason = [&](const std::string& error) {
      EXPECT_NE(error.find(model.reason), std::string::npos) << error;
      EXPECT_NE(error.find("'" + name + "'"), std::string::npos) << error;
    };
    try {
      AdmissionGateway gateway(GatewayConfig{}, model.factory);
      ADD_FAILURE() << "the gateway served " << name;
    } catch (const PreconditionError& e) {
      expect_reason(e.what());
    }
    try {
      net::AdmissionServer server(net::AdmissionServerConfig{}, model.factory);
      ADD_FAILURE() << "the server served " << name;
    } catch (const PreconditionError& e) {
      expect_reason(e.what());
    }
    const repl::PromotionResult promoted =
        repl::promote_replica(replica, model.factory);
    EXPECT_FALSE(promoted.ok);
    expect_reason(promoted.error);
  }

  // Positive control: the immediate-commitment schedulers on identical
  // machines still construct and serve.
  const std::vector<ShardSchedulerFactory> served = {
      threshold,
      [=](int) { return std::make_unique<GreedyScheduler>(kMachines); },
      [=](int) {
        return std::make_unique<RandomAdmissionScheduler>(kMachines, 0.5, 7);
      },
  };
  for (const ShardSchedulerFactory& factory : served) {
    SCOPED_TRACE(factory(0)->name());
    AdmissionGateway gateway(GatewayConfig{}, factory);
    for (JobId id = 1; id <= 20; ++id) {
      const double r = static_cast<double>(id);
      EXPECT_EQ(gateway.submit(make_job(id, r, 1.0, r + 10.0)),
                Outcome::kEnqueued);
    }
    const GatewayResult result = gateway.finish();
    EXPECT_TRUE(result.clean()) << result.first_violation();
    EXPECT_EQ(result.merged.accepted + result.merged.rejected, 20u);
    const net::AdmissionServer server(net::AdmissionServerConfig{}, factory);
    EXPECT_NE(server.port(), 0);
  }
}

/// Claims commitment on arrival (the default contract), then defers.
class DeferringScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job&) override { return Decision::defer(); }
  int machines() const override { return 1; }
  void reset() override {}
  std::string name() const override { return "Deferring"; }
};

TEST(Gateway, DeferralFromAnOnArrivalSchedulerFailsItsShard) {
  // The job would stay tentative in the engine and its client would never
  // be answered; the shard fails loudly instead.
  GatewayConfig config;
  config.shards = 1;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<DeferringScheduler>(); });
  EXPECT_EQ(gateway.submit(make_job(1, 0.0, 1.0, 10.0)), Outcome::kEnqueued);
  const GatewayResult result = gateway.finish();
  EXPECT_FALSE(result.clean());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors.front().find("'Deferring' deferred job 1"),
            std::string::npos)
      << result.errors.front();
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

// ---------- publication: counted and traced before observed ----------

TEST(Shard, BatchIsCountedAndTracedBeforeItIsObserved) {
  // The shard decides a whole popped batch before it publishes any of it.
  // Publication must still count and trace each decision before its
  // on_decision call: at the k-th call the registry shows k decisions
  // (with k admit latencies) and the ring already holds the k-th event.
  constexpr std::size_t kJobs = 64;
  MetricsRegistry metrics(1);
  TraceRing trace(1024);
  std::vector<TraceEvent> traced;
  traced.reserve(kJobs);
  std::vector<JobId> observed;
  std::size_t miscounted = 0;
  std::size_t unhistogrammed = 0;
  std::size_t untraced = 0;
  ShardConfig config;
  config.trace = &trace;
  config.on_decision = [&](const Job& job, const Decision&, std::uint64_t) {
    observed.push_back(job.id);
    const MetricsSnapshot snap = metrics.snapshot();
    if (snap.total.submitted != observed.size()) ++miscounted;
    if (snap.admit_latency.total_count() != snap.total.submitted) {
      ++unhistogrammed;
    }
    trace.drain(traced);  // the hook is the ring's only consumer
    if (traced.size() != observed.size() || traced.back().job_id != job.id) {
      ++untraced;
    }
  };
  Shard shard(
      0, [] { return std::make_unique<GreedyScheduler>(2); }, config,
      metrics);

  // Queued before start(): the worker's first pop is one 64-job batch.
  // Two machines fit four of these jobs; the rest are rejected.
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.0, 1.0, 2.0));
  }
  ASSERT_EQ(shard
                .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                   Shard::Clock::now())
                .taken,
            kJobs);
  shard.close();
  shard.start();
  shard.join();

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.total.batches, 1u) << "the jobs did not form one batch";
  EXPECT_EQ(snap.total.accepted, 4u);
  ASSERT_EQ(observed.size(), kJobs);
  for (std::size_t k = 0; k < kJobs; ++k) {
    EXPECT_EQ(observed[k], static_cast<JobId>(k));
  }
  EXPECT_EQ(miscounted, 0u) << "a decision was observed before it counted";
  EXPECT_EQ(unhistogrammed, 0u) << "a count ran ahead of its latency bin";
  EXPECT_EQ(untraced, 0u) << "a decision was observed before it was traced";
}

// ---------- shard: group commit ----------

/// Counts a shard commit log's syncs (CommitLogObserver::on_batch).
class SyncCounter final : public CommitLogObserver {
 public:
  void on_open(const std::string&, int, std::uint64_t) override {}
  void on_record(const char*, std::size_t, std::uint64_t) override {}
  void on_batch(std::uint64_t) override { ++syncs; }
  void on_close(std::uint64_t) override {}

  std::size_t syncs = 0;
};

/// Rejects every job after calling a hook on the shard's worker thread.
class HookedScheduler final : public OnlineScheduler {
 public:
  explicit HookedScheduler(std::function<void()> on_arrival)
      : on_arrival_(std::move(on_arrival)) {}
  Decision on_arrival(const Job&) override {
    on_arrival_();
    return Decision::reject();
  }
  int machines() const override { return 1; }
  void reset() override {}
  std::string name() const override { return "Hooked"; }

 private:
  std::function<void()> on_arrival_;
};

/// A fresh WAL path for one shard test.
std::string fresh_wal(const std::string& name) {
  return fresh_dir(name) + "/shard-0.wal";
}

TEST(Shard, WalGroupSyncsOnceForItsBacklog) {
  // A shard with a WAL decides every batch its queue already holds before
  // one sync: 13 jobs queued before start() pop as 4 + 4 + 4 + 1, the log
  // syncs once, and no decision is published before that sync.
  constexpr std::size_t kJobs = 13;
  MetricsRegistry metrics(1);
  SyncCounter log;
  std::vector<std::size_t> syncs_at_decision;
  ShardConfig config;
  config.batch_size = 4;
  config.wal_path = fresh_wal("group_sync");
  config.wal_fsync = FsyncPolicy::kBatch;
  config.wal_observer = &log;
  config.on_decision = [&](const Job&, const Decision&, std::uint64_t) {
    syncs_at_decision.push_back(log.syncs);
  };
  Shard shard(
      0, [] { return std::make_unique<GreedyScheduler>(2); }, config,
      metrics);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.0, 1.0, 1e9));
  }
  ASSERT_EQ(shard
                .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                   Shard::Clock::now())
                .taken,
            kJobs);
  shard.close();
  shard.start();
  shard.join();

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.total.batches, 4u);
  EXPECT_EQ(snap.total.wal_syncs, 1u);
  EXPECT_EQ(log.syncs, 1u) << "each pop paid its own sync";
  ASSERT_EQ(syncs_at_decision.size(), kJobs);
  EXPECT_EQ(syncs_at_decision.front(), 1u)
      << "a decision was published before the sync that covers it";
  std::filesystem::remove_all(std::filesystem::path(config.wal_path)
                                  .parent_path());
}

TEST(Shard, WalGroupStopsAtOneRingsWorth) {
  // Sustained overload must still publish. Every arrival pushes a fresh
  // job into its own shard, so the ring never empties; the first group
  // still ends at one ring's worth of decisions. The pushes stop once a
  // group has published, or at a deadline: an uncapped group would
  // otherwise never end.
  constexpr std::size_t kCapacity = 64;
  MetricsRegistry metrics(1);
  std::size_t decided = 0;
  std::atomic<std::size_t> decided_at_publication{0};
  Shard* self = nullptr;
  const auto deadline = Shard::Clock::now() + std::chrono::seconds(5);
  const auto refill = [&] {
    ++decided;
    if (decided_at_publication.load() != 0 ||
        Shard::Clock::now() > deadline) {
      return;
    }
    const Job job =
        make_job(static_cast<JobId>(kCapacity + decided), 0.0, 1.0, 2.0);
    (void)self->try_enqueue_batch(&job, nullptr, 1, Shard::Clock::now());
  };
  ShardConfig config;
  config.queue_capacity = kCapacity;
  config.batch_size = 4;
  config.wal_path = fresh_wal("group_cap");
  config.on_decision = [&](const Job&, const Decision&, std::uint64_t) {
    if (decided_at_publication.load() == 0) decided_at_publication = decided;
  };
  Shard shard(
      0, [&] { return std::make_unique<HookedScheduler>(refill); }, config,
      metrics);
  self = &shard;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.0, 1.0, 2.0));
  }
  ASSERT_EQ(shard
                .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                   Shard::Clock::now())
                .taken,
            kCapacity);
  shard.start();
  while (decided_at_publication.load() == 0 &&
         Shard::Clock::now() < deadline + std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shard.close();
  shard.join();

  EXPECT_EQ(decided_at_publication.load(), kCapacity)
      << "the first group did not end at one ring's worth";
  std::filesystem::remove_all(std::filesystem::path(config.wal_path)
                                  .parent_path());
}

TEST(Shard, ShardWithoutWalPublishesEveryPop) {
  // Without a WAL there is no sync to amortize: each pop is published
  // before the next one is decided.
  MetricsRegistry metrics(1);
  std::size_t arrivals = 0;
  std::size_t arrivals_at_publication = 0;
  ShardConfig config;
  config.batch_size = 2;
  config.on_decision = [&](const Job&, const Decision&, std::uint64_t) {
    if (arrivals_at_publication == 0) arrivals_at_publication = arrivals;
  };
  Shard shard(
      0,
      [&] { return std::make_unique<HookedScheduler>([&] { ++arrivals; }); },
      config, metrics);
  std::vector<Job> jobs;
  for (JobId id = 0; id < 8; ++id) jobs.push_back(make_job(id, 0.0, 1.0, 2.0));
  ASSERT_EQ(shard
                .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                   Shard::Clock::now())
                .taken,
            jobs.size());
  shard.close();
  shard.start();
  shard.join();

  EXPECT_EQ(arrivals, 8u);
  EXPECT_EQ(arrivals_at_publication, 2u);
  EXPECT_EQ(metrics.snapshot().total.wal_syncs, 0u);
}

// ---------- gateway: one ingest path ----------

TEST(Gateway, SteadyStateIngestDoesNotAllocate) {
  // A lone job is a batch of one: submit(), submit_batch(1) and
  // submit_batch(256) share one path, and in steady state none of them
  // touches the heap on the producer thread. Helper threads hold both
  // shards' consumer roles meanwhile, so every submit here only queues.
  GatewayConfig config;
  config.shards = 2;
  config.routing = RoutingPolicy::kHash;
  config.queue_capacity = std::size_t{1} << 16;
  config.supervisor.enabled = false;
  std::array<RoleGate, 2> gates;
  AdmissionGateway gateway(config, [&gates](int shard) {
    return std::make_unique<GatedScheduler>(
        std::make_unique<GreedyScheduler>(2),
        &gates[static_cast<std::size_t>(shard)]);
  });

  constexpr std::size_t kBatch = 256;
  constexpr int kRounds = 20;
  std::vector<Job> jobs;
  for (JobId id = 0;
       id < static_cast<JobId>((kBatch + 2) * (kRounds + 1) + 2); ++id) {
    jobs.push_back(make_job(id, 0.0, 1.0, 1e9));
  }
  // jobs[0] and jobs[1] hold the roles: one per shard.
  ShardRouter router(config.routing, config.shards);
  const int first_shard = router.route(jobs[0]);
  const auto other =
      std::find_if(jobs.begin() + 1, jobs.end(), [&](const Job& job) {
        return router.route(job) != first_shard;
      });
  ASSERT_NE(other, jobs.end());
  std::iter_swap(jobs.begin() + 1, other);
  std::array<Outcome, 2> held{};
  std::array<std::thread, 2> holders = {
      hold_role(gateway, jobs[0],
                gates[static_cast<std::size_t>(first_shard)], held[0]),
      hold_role(gateway, jobs[1],
                gates[static_cast<std::size_t>(1 - first_shard)], held[1])};
  std::size_t next = 2;
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

  for (RoleGate& gate : gates) {
    gate.released.store(true, std::memory_order_release);
  }
  for (std::thread& holder : holders) holder.join();
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, next);
}

// ---------- gateway: the combining hand-off ----------

/// Long enough that a parked worker wakes only when told to.
constexpr std::chrono::seconds kNoIdleWake{10};

/// Counts on_decision calls, and those made on the thread that built it.
struct DecisionThreads {
  std::thread::id self = std::this_thread::get_id();
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> calls_here{0};

  void hook(GatewayConfig& config) {
    config.on_decision = [this](int, const Job&, const Decision&,
                                std::uint64_t) {
      if (std::this_thread::get_id() == self) ++calls_here;
      ++calls;
    };
  }
};

/// The worker holds the consumer role from start() until its first park;
/// give it that moment, so the role is free when the test submits.
void let_worker_park() {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(Gateway, CombiningSubmitDoesNotAllocate) {
  // A submit that finds its shard idle decides the job itself, and that
  // inline decision makes no allocation: the shard's live state is its
  // marks, and the publication list is reserved at construction.
  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.pop_timeout = kNoIdleWake;
  DecisionThreads threads;
  threads.hook(config);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  constexpr std::size_t kBatch = 256;
  constexpr int kRounds = 20;
  std::vector<Job> jobs;
  for (JobId id = 0; id < static_cast<JobId>((kBatch + 2) * (kRounds + 1));
       ++id) {
    const auto release = static_cast<TimePoint>(id);
    jobs.push_back(make_job(id, release, 1.0, release + 2.0));
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
  let_worker_park();
  std::array<std::size_t, 3> warm_up{};
  one_round(warm_up);
  const std::size_t warm = next;
  ASSERT_EQ(threads.calls.load(), warm);
  const std::size_t here_before = threads.calls_here.load();
  std::array<std::size_t, 3> counts{};
  for (int round = 0; round < kRounds; ++round) one_round(counts);
  EXPECT_EQ(threads.calls_here.load() - here_before, next - warm)
      << "a submit on an idle shard left its job to the worker";
  EXPECT_EQ(counts[0], 0u) << "combining submit allocated";
  EXPECT_EQ(counts[1], 0u) << "combining submit_batch(1) allocated";
  EXPECT_EQ(counts[2], 0u) << "combining submit_batch(256) allocated";

  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.submitted, next);
}

TEST(Gateway, LoneSubmitOnAnIdleShardIsDecidedOnTheCallingThread) {
  // Without a WAL, a lone submit that finds the consumer role free claims
  // it and decides its own job: on_decision has run on this thread by the
  // time submit returns, with no hand-off to the worker.
  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.pop_timeout = kNoIdleWake;
  DecisionThreads threads;
  threads.hook(config);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  let_worker_park();
  for (JobId id = 0; id < 3; ++id) {
    ASSERT_EQ(gateway.submit(make_job(id, 0.0, 1.0, 1e9)),
              Outcome::kEnqueued);
    const auto expected = static_cast<std::size_t>(id + 1);
    EXPECT_EQ(threads.calls.load(), expected)
        << "submit returned before its decision";
    EXPECT_EQ(threads.calls_here.load(), expected)
        << "job " << id << " was decided off the calling thread";
  }
  EXPECT_TRUE(gateway.finish().clean());
}

TEST(Gateway, WalShardNeverDecidesOnTheSubmittingThread) {
  // A shard with a WAL never lets a producer claim its role: the fsync
  // and the follower's ACK stay off the submitting thread.
  const std::string dir = ::testing::TempDir() + "slacksched_wal_no_combine";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.pop_timeout = kNoIdleWake;
  config.wal_dir = dir;
  DecisionThreads threads;
  threads.hook(config);
  constexpr std::size_t kJobs = 200;
  {
    AdmissionGateway gateway(
        config, [](int) { return std::make_unique<GreedyScheduler>(2); });
    let_worker_park();
    for (JobId id = 0; id < static_cast<JobId>(kJobs); ++id) {
      ASSERT_EQ(gateway.submit(make_job(id, 0.0, 1.0, 1e9)),
                Outcome::kEnqueued);
    }
    EXPECT_TRUE(gateway.finish().clean());
  }
  EXPECT_EQ(threads.calls.load(), kJobs);
  EXPECT_EQ(threads.calls_here.load(), 0u)
      << "a WAL shard decided on the submitting thread";
  std::filesystem::remove_all(dir);
}

TEST(Gateway, ContendedLoneSubmitsNeverLoseTheirHandOff) {
  // Four producers submit one job each per round, all at once, and each
  // waits for its own answer. Decisions are slow and one claim decides at
  // most the ring's two slots, so a combiner often releases the role with
  // a job still queued that it never saw: only its release-side recheck
  // wakes a consumer for it. A hand-off lost there waits for the worker's
  // 10-s idle wake, and every other producer waits with it at the next
  // round. A job the full ring refuses is answered at once.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  constexpr auto kAnswerBound = std::chrono::seconds(2);
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  config.batch_size = 1;
  config.supervisor.enabled = false;
  config.pop_timeout = kNoIdleWake;
  std::vector<std::atomic<bool>> answered(
      static_cast<std::size_t>(kProducers * kPerProducer));
  config.on_decision = [&answered](int, const Job& job, const Decision&,
                                   std::uint64_t) {
    answered[static_cast<std::size_t>(job.id)].store(
        true, std::memory_order_release);
  };
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<SlowScheduler>(std::chrono::microseconds(20));
  });

  std::barrier round(kProducers);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> late{0};
  std::atomic<std::size_t> queued{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        round.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) break;
        const JobId id = static_cast<JobId>(p * kPerProducer + i);
        const auto submitted = std::chrono::steady_clock::now();
        const Outcome status = gateway.submit(make_job(id, 0.0, 1.0, 1e9));
        if (status == Outcome::kRejectedQueueFull) continue;
        ASSERT_EQ(status, Outcome::kEnqueued);
        ++queued;
        while (!answered[static_cast<std::size_t>(id)].load(
            std::memory_order_acquire)) {
          if (std::chrono::steady_clock::now() - submitted > kAnswerBound) {
            ++late;
            stop.store(true, std::memory_order_release);
            break;
          }
          std::this_thread::yield();
        }
      }
      round.arrive_and_drop();
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(late.load(), 0u) << "a job waited past 2 s for its answer";
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.metrics.total.submitted, queued.load());
}

}  // namespace
}  // namespace slacksched
