// Shard supervision: the health FSM, in-place restart of crashed workers,
// the circuit breaker, administrative force_down/force_recover, and the
// gateway's refusal of the jobs whose shard is unavailable. Also the shared
// health pieces both supervisors run on: the one Backoff, HealthPolicy
// validation, and the monitor thread's prompt stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/health.hpp"
#include "replication/failover.hpp"
#include "replication/replica_server.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"
#include "support/gateway_capture.hpp"

namespace slacksched {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::string wal_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "slacksched_sup_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SupervisorConfig fast_supervisor() {
  SupervisorConfig config;
  config.poll_interval = milliseconds(2);
  config.stall_threshold = milliseconds(200);
  config.down_threshold = milliseconds(500);
  config.max_attempts = 10;
  config.backoff.initial = milliseconds(2);
  config.backoff.max = milliseconds(10);
  config.retry_after = milliseconds(5);
  return config;
}

/// Polls `pred` until it holds or `limit` elapses.
template <typename Pred>
bool eventually(Pred pred, milliseconds limit = milliseconds(5000)) {
  const auto give_up = steady_clock::now() + limit;
  while (steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return pred();
}

Job make_job(JobId id, double release, double proc, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.proc = proc;
  job.deadline = deadline;
  return job;
}

/// `count` jobs every greedy configuration in this file accepts: unit
/// processing times, generous deadlines, releases ascending from `from`.
std::vector<Job> easy_jobs(int count, JobId first_id, double from) {
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double r = from + 0.01 * i;
    jobs.push_back(make_job(first_id + i, r, 1.0, r + 100.0));
  }
  return jobs;
}

void submit_now(AdmissionGateway& gateway, const std::vector<Job>& jobs) {
  for (const Job& job : jobs) {
    ASSERT_EQ(gateway.submit(job), Outcome::kEnqueued)
        << "job " << job.id;
  }
}

TEST(HealthNames, EveryStateHasAName) {
  EXPECT_EQ(to_string(Health::kHealthy), "healthy");
  EXPECT_EQ(to_string(Health::kDegraded), "degraded");
  EXPECT_EQ(to_string(Health::kDown), "down");
  EXPECT_EQ(to_string(Health::kRecovering), "recovering");
}

TEST(Supervisor, DisabledMonitorLeavesShardsHealthy) {
  GatewayConfig config;
  config.shards = 2;
  config.supervisor.enabled = false;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });
  EXPECT_EQ(gateway.shard_health(0), Health::kHealthy);
  EXPECT_EQ(gateway.shard_health(1), Health::kHealthy);
  submit_now(gateway, easy_jobs(10, 0, 0.0));
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.accepted, 10u);
}

TEST(Supervisor, CrashedWorkerIsRestartedInPlaceFromItsLog) {
  FaultPlan plan;
  plan.add({FaultSite::kWorkerPanic, 0, 1});  // crash at 1st batch boundary
  FaultInjector injector(plan);

  GatewayConfig config;
  config.shards = 1;
  config.wal_dir = wal_dir("restart");
  config.wal_fsync = FsyncPolicy::kBatch;
  config.supervisor = fast_supervisor();
  config.pop_timeout = milliseconds(5);
  config.fault_injector = &injector;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(4); });

  submit_now(gateway, easy_jobs(10, 0, 0.0));
  ASSERT_TRUE(eventually([&] {
    return gateway.supervisor().restarts(0) >= 1 &&
           gateway.shard_health(0) == Health::kHealthy;
  })) << "crashed worker was not restarted";
  EXPECT_EQ(injector.fired(), 1u);

  submit_now(gateway, easy_jobs(10, 100, 10.0));
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean()) << result.first_violation();
  EXPECT_TRUE(result.errors.empty());
  // Every accepted job survived the crash: the pre-crash commitments came
  // back from the log, the post-restart ones were decided live.
  EXPECT_EQ(result.merged.accepted, 20u);
  EXPECT_EQ(result.shards[0].schedule.job_count(), 20u);
  EXPECT_GE(result.metrics.total.recoveries, 1u);
  EXPECT_GE(result.metrics.total.wal_records_replayed, 1u);
  std::filesystem::remove_all(config.wal_dir);
}

TEST(Supervisor, HeartbeatStallDegradesThenHealthyOnResume) {
  /// Wedges the role holder inside one on_arrival call long enough to trip
  /// the stall threshold, then behaves normally.
  class WedgeScheduler final : public OnlineScheduler {
   public:
    explicit WedgeScheduler(milliseconds wedge) : wedge_(wedge), inner_(2) {}
    Decision on_arrival(const Job& job) override {
      if (!wedged_) {
        wedged_ = true;
        std::this_thread::sleep_for(wedge_);
      }
      return inner_.on_arrival(job);
    }
    [[nodiscard]] int machines() const override { return inner_.machines(); }
    void reset() override { inner_.reset(); }
    [[nodiscard]] std::string name() const override { return "Wedge"; }

   private:
    milliseconds wedge_;
    bool wedged_ = false;
    GreedyScheduler inner_;
  };

  GatewayConfig config;
  config.shards = 1;
  config.supervisor = fast_supervisor();
  config.supervisor.stall_threshold = milliseconds(40);
  config.supervisor.down_threshold = milliseconds(10000);
  config.pop_timeout = milliseconds(5);
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<WedgeScheduler>(milliseconds(250));
  });

  // Without a WAL the submit decides its job inline, so the wedge holds
  // the submitting thread and the consumer role with it: submit from a
  // helper, once the worker has parked, and watch from here. The parked
  // worker's idle wakes must not count as progress while the role is held.
  std::this_thread::sleep_for(milliseconds(50));
  std::thread submitter([&] { submit_now(gateway, easy_jobs(1, 0, 0.0)); });
  EXPECT_TRUE(eventually(
      [&] { return gateway.shard_health(0) == Health::kDegraded; }))
      << "stalled worker never marked degraded";
  EXPECT_TRUE(eventually(
      [&] { return gateway.shard_health(0) == Health::kHealthy; }))
      << "resumed worker never marked healthy again";
  submitter.join();
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.accepted, 1u);
}

TEST(Supervisor, CircuitBreaksWhenRestartsAreExhausted) {
  // No WAL configured: a crashed shard cannot be restarted, every attempt
  // fails, and after max_attempts the circuit breaks for good.
  FaultPlan plan;
  plan.add({FaultSite::kDequeue, 0, 1});
  FaultInjector injector(plan);

  GatewayConfig config;
  config.shards = 1;
  config.supervisor = fast_supervisor();
  config.supervisor.max_attempts = 2;
  config.pop_timeout = milliseconds(5);
  config.fault_injector = &injector;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  submit_now(gateway, easy_jobs(4, 0, 0.0));
  ASSERT_TRUE(eventually([&] { return gateway.supervisor().circuit_broken(0); }))
      << "circuit never broke";
  EXPECT_EQ(gateway.shard_health(0), Health::kDown);
  EXPECT_EQ(gateway.supervisor().restarts(0), 0);

  // The single shard is gone: new work is shed with retry_after.
  const Outcome status = gateway.submit(make_job(99, 1.0, 1.0, 100.0));
  EXPECT_EQ(status, Outcome::kRejectedRetryAfter);
  EXPECT_EQ(gateway.retry_after(), milliseconds(5));
  EXPECT_GE(gateway.metrics_snapshot().total.degraded_rejected, 1u);

  const GatewayResult result = gateway.finish();
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("shard 0"), std::string::npos)
      << result.errors[0];
}

TEST(Supervisor, ForceDownDrainsAndForceRecoverRestarts) {
  GatewayConfig config;
  config.shards = 1;
  config.wal_dir = wal_dir("force");
  config.supervisor = fast_supervisor();
  config.pop_timeout = milliseconds(5);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  submit_now(gateway, easy_jobs(5, 0, 0.0));
  ASSERT_TRUE(eventually(
      [&] { return gateway.metrics_snapshot().total.submitted >= 5; }));

  gateway.supervisor().force_down(0);
  EXPECT_EQ(gateway.shard_health(0), Health::kDown);
  // The monitor must not undo an administrative drain.
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(gateway.shard_health(0), Health::kDown);
  EXPECT_EQ(gateway.supervisor().restarts(0), 0);

  // force_recover refuses until the worker drained and exited, then
  // replays the log and brings the shard back.
  ASSERT_TRUE(eventually([&] { return gateway.supervisor().force_recover(0); }))
      << "force_recover never succeeded";
  EXPECT_EQ(gateway.shard_health(0), Health::kHealthy);
  EXPECT_EQ(gateway.supervisor().restarts(0), 1);

  submit_now(gateway, easy_jobs(5, 100, 10.0));
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.merged.accepted, 10u);
  EXPECT_EQ(result.shards[0].schedule.job_count(), 10u);
  EXPECT_GE(result.metrics.total.recoveries, 1u);
  std::filesystem::remove_all(config.wal_dir);
}

TEST(Supervisor, UnavailableShardRefusesOnlyItsOwnJobs) {
  GatewayConfig config;
  config.shards = 2;
  config.routing = RoutingPolicy::kHash;
  config.supervisor.enabled = false;  // manual control only
  config.wal_dir = wal_dir("own_jobs");  // force_recover replays the log
  config.enable_tracing = true;
  ShardDecisionLogs logs;
  capture_decisions(config, logs);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  gateway.supervisor().force_down(0);
  EXPECT_FALSE(gateway.supervisor().available(0));

  // Hash routing homes each job by its id alone; a job homed on the down
  // shard is refused, never decided by the healthy one.
  const std::vector<Job> jobs = easy_jobs(20, 0, 0.0);
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult batch = gateway.submit_batch(jobs, statuses);
  std::vector<Job> refused;
  std::set<JobId> homed_on_1;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (ShardRouter::mix_id(jobs[i].id) % 2 == 0) {
      EXPECT_EQ(statuses[i], Outcome::kRejectedRetryAfter) << jobs[i].id;
      refused.push_back(jobs[i]);
    } else {
      EXPECT_EQ(statuses[i], Outcome::kEnqueued) << jobs[i].id;
      homed_on_1.insert(jobs[i].id);
    }
  }
  ASSERT_FALSE(refused.empty());
  ASSERT_FALSE(homed_on_1.empty());
  EXPECT_EQ(batch.rejected_retry_after, refused.size());
  EXPECT_EQ(batch.enqueued, homed_on_1.size());
  ASSERT_TRUE(eventually([&] {
    return gateway.metrics_snapshot().shards[1].submitted ==
           homed_on_1.size();
  }));
  const MetricsSnapshot live = gateway.metrics_snapshot();
  EXPECT_EQ(live.shards[0].degraded_rejected, refused.size());
  EXPECT_EQ(live.shards[1].degraded_rejected, 0u);
  EXPECT_EQ(live.shards[0].submitted, 0u);  // shard 0 decided nothing

  // Each refusal is traced on its own shard's ring, naming that shard.
  std::vector<TraceEvent> events;
  gateway.trace_ring(0)->drain(events);
  ASSERT_EQ(events.size(), refused.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].job_id, refused[i].id);
    EXPECT_EQ(events[i].shard, 0);
    EXPECT_EQ(events[i].kind, Outcome::kRejectedRetryAfter);
  }

  // Once shard 0 is back, the refused jobs are decided there on retry.
  ASSERT_TRUE(eventually([&] { return gateway.supervisor().force_recover(0); }))
      << "force_recover never succeeded";
  std::vector<Outcome> retried(refused.size());
  EXPECT_EQ(gateway.submit_batch(refused, retried).enqueued, refused.size());
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(logs[0].size(), refused.size());
  for (std::size_t i = 0; i < refused.size(); ++i) {
    EXPECT_EQ(logs[0][i].job.id, refused[i].id);
  }
  ASSERT_EQ(logs[1].size(), homed_on_1.size());
  for (const DecisionRecord& record : logs[1]) {
    EXPECT_TRUE(homed_on_1.count(record.job.id)) << record.job.id;
  }
  EXPECT_EQ(result.shards[0].schedule.job_count(), refused.size());
  EXPECT_EQ(result.shards[1].schedule.job_count(), homed_on_1.size());
  std::filesystem::remove_all(config.wal_dir);
}

TEST(Supervisor, AllShardsDownShedsWithRetryAfter) {
  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.supervisor.retry_after = milliseconds(7);
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<GreedyScheduler>(2); });

  gateway.supervisor().force_down(0);
  EXPECT_EQ(gateway.submit(make_job(1, 0.0, 1.0, 10.0)),
            Outcome::kRejectedRetryAfter);
  EXPECT_EQ(gateway.retry_after(), milliseconds(7));

  const std::vector<Job> jobs = easy_jobs(3, 10, 1.0);
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult batch = gateway.submit_batch(
      std::span<const Job>(jobs.data(), jobs.size()), statuses);
  EXPECT_EQ(batch.rejected_retry_after, 3u);
  EXPECT_EQ(batch.enqueued, 0u);
  for (const Outcome s : statuses) {
    EXPECT_EQ(s, Outcome::kRejectedRetryAfter);
  }
  EXPECT_GE(gateway.metrics_snapshot().total.degraded_rejected, 4u);
  (void)gateway.finish();
}

TEST(Supervisor, GatewayConfigNamesEverySupervisorProblem) {
  GatewayConfig config;
  config.supervisor.poll_interval = milliseconds(0);
  config.supervisor.stall_threshold = milliseconds(800);
  config.supervisor.down_threshold = milliseconds(800);
  config.supervisor.max_attempts = -1;
  config.supervisor.backoff.factor = 0.5;
  std::vector<std::string> supervisor_errors;
  for (const std::string& e : config.validate()) {
    if (e.rfind("supervisor: ", 0) == 0) supervisor_errors.push_back(e);
  }
  ASSERT_EQ(supervisor_errors.size(), 4u);
  EXPECT_NE(supervisor_errors[0].find("poll_interval"), std::string::npos);
  EXPECT_NE(supervisor_errors[1].find("stall_threshold"), std::string::npos);
  EXPECT_NE(supervisor_errors[2].find("max_attempts"), std::string::npos);
  EXPECT_NE(supervisor_errors[3].find("backoff.factor"), std::string::npos);
  EXPECT_THROW(AdmissionGateway(config,
                                [](int) {
                                  return std::make_unique<GreedyScheduler>(2);
                                }),
               PreconditionError);
}

// ---------- the shared pieces ----------

TEST(Backoff, EqualSeedStreamAndAttemptReplayEqualDelays) {
  const Backoff backoff{milliseconds(3), 2.0, milliseconds(400), 42};
  const Backoff copy = backoff;
  for (int attempt = 1; attempt <= 20; ++attempt) {
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      EXPECT_EQ(backoff.delay(attempt, stream), copy.delay(attempt, stream))
          << attempt << "/" << stream;
    }
  }
}

TEST(Backoff, EveryDelayIsTheCappedExponentialJitteredIntoHalfToOne) {
  for (const Backoff backoff :
       {Backoff{milliseconds(3), 2.0, milliseconds(400), 1},
        Backoff{milliseconds(10), 3.0, milliseconds(1000), 2},
        Backoff{milliseconds(500), 2.0, milliseconds(100), 3},  // capped
        Backoff{milliseconds(1), 1.0, milliseconds(1), 4}}) {   // 1 ms floor
    for (int attempt = 1; attempt <= 30; ++attempt) {
      for (std::uint64_t stream = 0; stream < 3; ++stream) {
        const double base = std::min(
            static_cast<double>(backoff.initial.count()) *
                std::pow(backoff.factor, attempt - 1),
            static_cast<double>(backoff.max.count()));
        const auto d = backoff.delay(attempt, stream).count();
        EXPECT_GE(d, 1);
        EXPECT_GE(d, std::floor(0.5 * base)) << attempt;
        EXPECT_LE(d, std::max(1.0, base)) << attempt;
      }
    }
  }
}

TEST(Backoff, DifferentSeedsAndDifferentStreamsDiverge) {
  const Backoff a{milliseconds(100), 2.0, milliseconds(100000), 42};
  Backoff b = a;
  b.seed = 43;
  bool seeds_diverged = false;
  bool streams_diverged = false;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    seeds_diverged |= a.delay(attempt) != b.delay(attempt);
    streams_diverged |= a.delay(attempt, 0) != a.delay(attempt, 1);
  }
  EXPECT_TRUE(seeds_diverged);
  EXPECT_TRUE(streams_diverged);
}

TEST(HealthPolicy, ClassifiesSilenceAgainstBothThresholds) {
  HealthPolicy policy;
  policy.stall_threshold = milliseconds(50);
  policy.down_threshold = milliseconds(200);
  EXPECT_EQ(policy.classify(milliseconds(49)), Health::kHealthy);
  EXPECT_EQ(policy.classify(milliseconds(50)), Health::kDegraded);
  EXPECT_EQ(policy.classify(milliseconds(199)), Health::kDegraded);
  EXPECT_EQ(policy.classify(milliseconds(200)), Health::kDown);
  EXPECT_TRUE(policy.validate().empty());
}

TEST(FailoverDriverPolicy, RefusesAnInvalidPolicyNamingEveryProblem) {
  repl::ReplicaServerConfig replica_config;
  replica_config.dir = wal_dir("failover_invalid");
  repl::ReplicaServer replica(replica_config);
  repl::FailoverConfig config;
  config.poll_interval = milliseconds(0);
  config.stall_threshold = milliseconds(300);
  config.down_threshold = milliseconds(100);
  try {
    repl::FailoverDriver driver(replica, config, [] {});
    FAIL() << "an invalid FailoverConfig was accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poll_interval"), std::string::npos) << what;
    EXPECT_NE(what.find("stall_threshold"), std::string::npos) << what;
  }
}

TEST(FailoverDriverPolicy, StopWakesASleepingMonitorAtOnce) {
  repl::ReplicaServerConfig replica_config;
  replica_config.dir = wal_dir("failover_stop");
  repl::ReplicaServer replica(replica_config);
  repl::FailoverConfig config;
  config.poll_interval = std::chrono::seconds(10);
  config.stall_threshold = std::chrono::seconds(20);
  config.down_threshold = std::chrono::seconds(40);
  repl::FailoverDriver driver(replica, config, [] {});
  driver.start();
  std::this_thread::sleep_for(milliseconds(20));  // the monitor is asleep
  const auto begin = steady_clock::now();
  driver.stop();
  EXPECT_LT(steady_clock::now() - begin, milliseconds(100));
  EXPECT_EQ(driver.health(), Health::kHealthy);
  driver.stop();  // idempotent
}

}  // namespace
}  // namespace slacksched
