// Deterministic fault injection, and the crash-recovery property the whole
// fault-tolerance layer exists for: under fsync=every-commit, a randomly
// placed worker crash loses no accepted job — the state recovered from the
// commit log is exactly the committed schedule, record for record.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold.hpp"
#include "models/model_factory.hpp"
#include "models/speed_profile.hpp"
#include "sched/validator.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"
#include "service/recovery.hpp"
#include "workload/generators.hpp"

namespace slacksched {
namespace {

constexpr double kEps = 0.1;
constexpr int kMachines = 3;

/// Fresh per-test WAL directory under the gtest temp dir.
std::string wal_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "slacksched_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Supervision tuned for tests: millisecond-scale polling and backoff so a
/// crash/restart cycle completes in a few milliseconds.
SupervisorConfig fast_supervisor() {
  SupervisorConfig config;
  config.poll_interval = std::chrono::milliseconds(2);
  config.stall_threshold = std::chrono::milliseconds(200);
  config.down_threshold = std::chrono::milliseconds(500);
  config.max_attempts = 10;
  config.backoff.initial = std::chrono::milliseconds(2);
  config.backoff.max = std::chrono::milliseconds(10);
  config.retry_after = std::chrono::milliseconds(5);
  return config;
}

TEST(FaultInjector, TriggerFiresExactlyOnceAtItsHitCount) {
  FaultPlan plan;
  plan.add({FaultSite::kCommit, /*shard=*/2, /*hit=*/3});
  FaultInjector injector(plan);

  EXPECT_FALSE(injector.fires(FaultSite::kCommit, 2));  // hit 1
  EXPECT_FALSE(injector.fires(FaultSite::kCommit, 2));  // hit 2
  EXPECT_FALSE(injector.fires(FaultSite::kCommit, 0));  // other shard
  EXPECT_FALSE(injector.fires(FaultSite::kDequeue, 2)); // other site
  EXPECT_TRUE(injector.fires(FaultSite::kCommit, 2));   // hit 3: fires
  EXPECT_FALSE(injector.fires(FaultSite::kCommit, 2));  // one-shot

  EXPECT_EQ(injector.hits(FaultSite::kCommit, 2), 4u);
  EXPECT_EQ(injector.hits(FaultSite::kCommit, 0), 1u);
  EXPECT_EQ(injector.hits(FaultSite::kDequeue, 2), 1u);
  EXPECT_EQ(injector.fired(), 1u);
}

TEST(FaultInjector, CountersAreIndependentPerSiteAndShard) {
  FaultInjector injector{FaultPlan{}};
  for (int i = 0; i < 5; ++i) (void)injector.fires(FaultSite::kEnqueue, 0);
  for (int i = 0; i < 3; ++i) (void)injector.fires(FaultSite::kEnqueue, 7);
  (void)injector.fires(FaultSite::kFsync, 0);
  EXPECT_EQ(injector.hits(FaultSite::kEnqueue, 0), 5u);
  EXPECT_EQ(injector.hits(FaultSite::kEnqueue, 7), 3u);
  EXPECT_EQ(injector.hits(FaultSite::kFsync, 0), 1u);
  EXPECT_EQ(injector.hits(FaultSite::kWorkerPanic, 0), 0u);
  EXPECT_EQ(injector.fired(), 0u);
}

TEST(FaultPlan, RandomCrashIsDeterministicInTheSeed) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const FaultPlan a = FaultPlan::random_crash(seed, /*shards=*/4,
                                                /*max_hit=*/100);
    const FaultPlan b = FaultPlan::random_crash(seed, 4, 100);
    ASSERT_EQ(a.triggers().size(), 1u);
    ASSERT_EQ(b.triggers().size(), 1u);
    EXPECT_EQ(a.triggers()[0].site, b.triggers()[0].site);
    EXPECT_EQ(a.triggers()[0].shard, b.triggers()[0].shard);
    EXPECT_EQ(a.triggers()[0].hit, b.triggers()[0].hit);

    const FaultTrigger& t = a.triggers()[0];
    EXPECT_NE(t.site, FaultSite::kEnqueue);  // crash sites only
    EXPECT_GE(t.shard, 0);
    EXPECT_LT(t.shard, 4);
    EXPECT_GE(t.hit, 1u);
    EXPECT_LE(t.hit, 100u);
  }
}

TEST(FaultPlan, DifferentSeedsExploreDifferentCrashes) {
  // Not a hard guarantee per pair, but over 32 seeds the plans must not
  // all collapse onto one (site, shard, hit).
  bool any_difference = false;
  const FaultPlan first = FaultPlan::random_crash(0, 4, 1000);
  for (std::uint64_t seed = 1; seed < 32; ++seed) {
    const FaultPlan plan = FaultPlan::random_crash(seed, 4, 1000);
    if (plan.triggers()[0].hit != first.triggers()[0].hit ||
        plan.triggers()[0].site != first.triggers()[0].site ||
        plan.triggers()[0].shard != first.triggers()[0].shard) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultSiteNames, EverySiteHasAName) {
  for (const FaultSite site :
       {FaultSite::kEnqueue, FaultSite::kDequeue, FaultSite::kCommit,
        FaultSite::kFsync, FaultSite::kWorkerPanic}) {
    EXPECT_FALSE(to_string(site).empty());
  }
}

TEST(FaultInjection, EnqueueFaultLooksLikeOneBackpressureRefusal) {
  FaultPlan plan;
  plan.add({FaultSite::kEnqueue, 0, 1});
  FaultInjector injector(plan);

  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.fault_injector = &injector;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<ThresholdScheduler>(kEps, 2); });

  Job job;
  job.id = 1;
  job.release = 0.0;
  job.proc = 1.0;
  job.deadline = 10.0;
  EXPECT_EQ(gateway.submit(job), Outcome::kRejectedQueueFull);
  EXPECT_EQ(gateway.submit(job), Outcome::kEnqueued);
  const GatewayResult result = gateway.finish();
  EXPECT_EQ(result.merged.submitted, 1u);
  EXPECT_EQ(result.metrics.total.backpressure_rejected, 1u);
}

TEST(FaultInjection, EnqueueFaultRefusesOneJobOfABatch) {
  // The ingest fault sits on the one ingest path: it refuses exactly the
  // job it fires on, whether that job arrived alone or in a batch.
  FaultPlan plan;
  plan.add({FaultSite::kEnqueue, 0, 2});
  FaultInjector injector(plan);

  GatewayConfig config;
  config.shards = 1;
  config.supervisor.enabled = false;
  config.fault_injector = &injector;
  AdmissionGateway gateway(
      config, [](int) { return std::make_unique<ThresholdScheduler>(kEps, 2); });

  std::vector<Job> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i + 1);
    jobs[i].release = 0.0;
    jobs[i].proc = 1.0;
    jobs[i].deadline = 10.0;
  }
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult batch = gateway.submit_batch(jobs, statuses);
  EXPECT_EQ(statuses, (std::vector<Outcome>{Outcome::kEnqueued,
                                            Outcome::kRejectedQueueFull,
                                            Outcome::kEnqueued}));
  EXPECT_EQ(batch.enqueued, 2u);
  EXPECT_EQ(batch.rejected_queue_full, 1u);
  const GatewayResult result = gateway.finish();
  EXPECT_EQ(result.metrics.total.backpressure_rejected, 1u);
  EXPECT_EQ(result.merged.submitted, 2u);
}

/// The acceptance property: a randomized workload, a seeded random crash
/// site, a 1-shard WAL-backed gateway under fsync=every-commit. After the
/// run (crash, supervised restart, replay, resume), the committed schedule
/// must equal the accepted-and-logged set record for record, every record
/// must re-validate, and the schedule must be legal for the instance.
void run_crash_recovery_property(std::uint64_t seed, int* crashes_fired) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  WorkloadConfig wconfig;
  wconfig.n = 800;
  wconfig.eps = kEps;
  wconfig.arrival_rate = 2.0;
  wconfig.seed = static_cast<unsigned>(1000 + seed);
  const Instance instance = generate_workload(wconfig);

  // Arm one crash somewhere in the first ~60 per-site events: dequeue,
  // commit, fsync, or clean batch boundary — whichever the seed picks.
  FaultInjector injector(FaultPlan::random_crash(seed, 1, 60));

  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 4096;
  config.batch_size = 32;
  config.wal_dir = wal_dir("crash_prop_" + std::to_string(seed));
  config.wal_fsync = FsyncPolicy::kEveryCommit;
  config.supervisor = fast_supervisor();
  config.pop_timeout = std::chrono::milliseconds(5);
  config.fault_injector = &injector;
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kMachines);
  });

  for (const Job& job : instance.jobs()) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      const Outcome status = gateway.submit(job);
      if (status == Outcome::kEnqueued) break;
      ASSERT_NE(status, Outcome::kRejectedClosed);
      ASSERT_LT(std::chrono::steady_clock::now(), give_up)
          << "submission stuck while shard recovering";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const GatewayResult result = gateway.finish();
  ASSERT_EQ(result.shards.size(), 1u);
  const Schedule& committed = result.shards[0].schedule;

  // 1. The committed schedule is legal for the instance (starts, deadlines,
  //    no overlap) — recovery resurrected no illegal state.
  const ValidationReport report = validate_schedule(instance, committed);
  EXPECT_TRUE(report.ok) << report.to_string();

  // 2. Replaying the log independently (read-only) reproduces the committed
  //    schedule exactly: zero accepted-and-logged jobs lost, none invented.
  //    recover_commit_log re-validates every record on the way.
  const RecoveryResult replayed =
      recover_commit_log(config.wal_dir + "/shard-0.wal", kMachines, nullptr,
                         /*truncate_file=*/false);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_FALSE(replayed.tail_truncated)
      << "every-commit fsync left a torn tail";
  const std::vector<Placement> from_log = replayed.schedule.all_placements();
  const std::vector<Placement> from_run = committed.all_placements();
  ASSERT_EQ(from_log.size(), from_run.size());
  for (std::size_t i = 0; i < from_log.size(); ++i) {
    EXPECT_EQ(from_log[i].job, from_run[i].job) << "placement " << i;
    EXPECT_EQ(from_log[i].machine, from_run[i].machine) << "placement " << i;
    EXPECT_DOUBLE_EQ(from_log[i].start, from_run[i].start)
        << "placement " << i;
  }

  // 3. When the armed crash fired, the run must also report the recovery:
  //    either a supervised restart happened or the final result carries the
  //    worker's fatal error (crash too late for a restart before finish).
  if (injector.fired() > 0) {
    ++*crashes_fired;
    const bool restarted = gateway.supervisor().restarts(0) > 0;
    EXPECT_TRUE(restarted || !result.errors.empty())
        << "crash fired but neither a restart nor an error was reported";
    EXPECT_GE(result.metrics.total.recoveries + result.errors.size(), 1u);
  }

  std::filesystem::remove_all(config.wal_dir);
}

TEST(CrashRecoveryProperty, NoAcceptedJobIsLostAcrossRandomCrashSites) {
  int crashes_fired = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    run_crash_recovery_property(seed, &crashes_fired);
  }
  // The property is vacuous if the armed crashes never trigger: with six
  // seeds and hit counts in [1, 60] on an 800-job stream, most must fire.
  EXPECT_GE(crashes_fired, 3);
}

/// The same WAL round-trip property for the deferred-commitment and
/// related-machine schedulers, driven through the gateway's model selector.
/// After crash, supervised restart, replay and resume: the committed
/// schedule is legal, and an independent read-only replay of the log —
/// under the model's speed profile — reproduces it placement for
/// placement, including the speed-aware durations. Tentative (undecided)
/// jobs lost in the crash are permitted casualties under δ-commitment; the
/// property covers every *committed* job.
void run_model_crash_recovery(std::uint64_t seed, const ModelConfig& model,
                              const std::string& tag, int* crashes_fired) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " model=" + model.label());
  WorkloadConfig wconfig;
  wconfig.n = 600;
  wconfig.eps = kEps;
  wconfig.arrival_rate = 2.0;
  wconfig.seed = static_cast<unsigned>(2000 + seed);
  const Instance instance = generate_workload(wconfig);

  FaultInjector injector(FaultPlan::random_crash(seed, 1, 60));

  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 4096;
  config.batch_size = 32;
  config.wal_dir = wal_dir("model_crash_" + tag + "_" + std::to_string(seed));
  config.wal_fsync = FsyncPolicy::kEveryCommit;
  config.supervisor = fast_supervisor();
  config.pop_timeout = std::chrono::milliseconds(5);
  config.fault_injector = &injector;
  config.model = model;
  AdmissionGateway gateway(config);

  for (const Job& job : instance.jobs()) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      const Outcome status = gateway.submit(job);
      if (status == Outcome::kEnqueued) break;
      ASSERT_NE(status, Outcome::kRejectedClosed);
      ASSERT_LT(std::chrono::steady_clock::now(), give_up)
          << "submission stuck while shard recovering";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const GatewayResult result = gateway.finish();
  ASSERT_EQ(result.shards.size(), 1u);
  const Schedule& committed = result.shards[0].schedule;
  EXPECT_TRUE(result.clean()) << result.first_violation();

  const ValidationReport report = validate_schedule(instance, committed);
  EXPECT_TRUE(report.ok) << report.to_string();

  // Read-only replay under the model's speed profile: the recovered
  // schedule must be speed-aware (durations p_j / s_i, not p_j).
  const SpeedProfile profile = model.speeds.empty()
                                   ? SpeedProfile(model.machines)
                                   : SpeedProfile(model.speeds);
  const RecoveryResult replayed = recover_commit_log(
      config.wal_dir + "/shard-0.wal", model.machines, nullptr,
      /*truncate_file=*/false, profile.uniform() ? nullptr : &profile);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_FALSE(replayed.tail_truncated)
      << "every-commit fsync left a torn tail";
  EXPECT_EQ(replayed.schedule.uniform_speeds(), committed.uniform_speeds());
  const std::vector<Placement> from_log = replayed.schedule.all_placements();
  const std::vector<Placement> from_run = committed.all_placements();
  ASSERT_EQ(from_log.size(), from_run.size());
  for (std::size_t i = 0; i < from_log.size(); ++i) {
    EXPECT_EQ(from_log[i].job, from_run[i].job) << "placement " << i;
    EXPECT_EQ(from_log[i].machine, from_run[i].machine) << "placement " << i;
    EXPECT_DOUBLE_EQ(from_log[i].start, from_run[i].start)
        << "placement " << i;
    EXPECT_DOUBLE_EQ(from_log[i].duration, from_run[i].duration)
        << "placement " << i;
  }

  if (injector.fired() > 0) ++*crashes_fired;
  std::filesystem::remove_all(config.wal_dir);
}

TEST(CrashRecoveryProperty, DeltaCommitmentSurvivesTheSameCrashSites) {
  ModelConfig model;
  model.model = CommitModel::kDelta;
  model.delta = 0.5;
  model.machines = kMachines;
  int crashes_fired = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    run_model_crash_recovery(seed, model, "delta", &crashes_fired);
  }
  EXPECT_GE(crashes_fired, 2);
}

TEST(CrashRecoveryProperty, RelatedMachinesRestoreTheirSpeeds) {
  ModelConfig model;
  model.model = CommitModel::kOnArrival;
  model.arrival = ArrivalPolicy::kGreedyBestFit;
  model.machines = kMachines;
  model.speeds = SpeedProfile::two_tier(kMachines, 1, 4.0).speeds();
  int crashes_fired = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    run_model_crash_recovery(seed, model, "speeds", &crashes_fired);
  }
  EXPECT_GE(crashes_fired, 2);
}

TEST(CrashRecoveryProperty, DeltaOnRelatedMachinesRoundTrips) {
  ModelConfig model;
  model.model = CommitModel::kDelta;
  model.delta = 1.0;
  model.machines = kMachines;
  model.speeds = SpeedProfile::geometric(kMachines, 0.75).speeds();
  int crashes_fired = 0;
  for (const std::uint64_t seed : {5ull, 6ull}) {
    run_model_crash_recovery(seed, model, "delta_speeds", &crashes_fired);
  }
  (void)crashes_fired;  // two seeds may both miss; the round trip is the point
}

}  // namespace
}  // namespace slacksched
