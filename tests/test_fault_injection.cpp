// Deterministic fault injection, and the crash-recovery property the whole
// fault-tolerance layer exists for: under fsync=batch, a randomly placed
// worker crash loses no accepted job — the state recovered from the commit
// log is exactly the shard's committed state, mark for mark, and the log
// holds every accept the shard told through on_decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold.hpp"
#include "sched/validator.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"
#include "service/recovery.hpp"
#include "support/gateway_capture.hpp"
#include "support/wal_schedule.hpp"
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
  std::vector<std::string> names;
  for (const FaultSite site :
       {FaultSite::kEnqueue, FaultSite::kDequeue, FaultSite::kCommit,
        FaultSite::kFsync, FaultSite::kWorkerPanic,
        FaultSite::kReplicationFrame, FaultSite::kFailover}) {
    const std::string name = to_string(site);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 0) << name;
    names.push_back(name);
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

TEST(FaultInjection, MidBatchCrashPublishesNothingFromItsBatch) {
  // A shard with a WAL publishes a group of popped batches only after
  // deciding all of it and making its records durable. Here the group is
  // four pops of two jobs. A worker that dies mid-group (at the seventh
  // commit, in the last pop) or at the group's fsync has told nobody
  // anything about that group. The log holds whatever reached the file
  // before the crash — nothing at the commit (kBatch buffers until the
  // boundary), all eight records at the fsync (written, never synced) —
  // and recovery replays exactly that, as after a process crash that lost
  // its unsent replies.
  struct Input {
    FaultSite site;
    std::vector<JobId> logged;
  };
  const Input inputs[] = {
      {FaultSite::kCommit, {}},
      {FaultSite::kFsync, {1, 2, 3, 4, 5, 6, 7, 8}},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE("site=" + to_string(input.site));
    const std::string dir = wal_dir("mid_batch_crash");
    const std::string wal_path = dir + "/shard-0.wal";
    FaultPlan plan;
    plan.add({input.site, /*shard=*/0,
              /*hit=*/input.site == FaultSite::kCommit ? 7u : 1u});
    FaultInjector injector(plan);

    MetricsRegistry metrics(1);
    std::size_t notified = 0;
    ShardConfig config;
    config.batch_size = 2;
    config.wal_path = wal_path;
    config.wal_fsync = FsyncPolicy::kBatch;
    config.faults = &injector;
    config.on_decision = [&notified](const Job&, const Decision&,
                                     std::uint64_t) { ++notified; };
    Shard shard(
        0,
        [] { return std::make_unique<ThresholdScheduler>(kEps, kMachines); },
        config, metrics);

    // Queued before start(): the first group is four pops of two jobs, each
    // of which fits and is accepted.
    std::vector<Job> jobs;
    for (JobId id = 1; id <= 8; ++id) {
      Job job;
      job.id = id;
      job.release = 0.0;
      job.proc = 1.0;
      job.deadline = 1000.0;
      jobs.push_back(job);
    }
    ASSERT_EQ(shard
                  .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                     Shard::Clock::now())
                  .taken,
              jobs.size());
    shard.start();
    while (!shard.worker_exited()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(shard.worker_failed());
    EXPECT_EQ(injector.fired(), 1u);
    shard.close();
    shard.join();

    EXPECT_EQ(notified, 0u) << "a crashed group published decisions";
    const MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.total.submitted, 0u);
    EXPECT_EQ(snap.total.batches, 4u);
    EXPECT_EQ(snap.total.wal_syncs, 0u);

    const RecoveryResult recovered =
        recover_commit_log(wal_path, kMachines, nullptr,
                           /*truncate_file=*/false);
    ASSERT_TRUE(recovered.ok) << recovered.error;
    EXPECT_EQ(recovered.records_replayed, input.logged.size());
    std::vector<JobId> logged;
    for (const Placement& placement :
         schedule_from_wal(wal_path, kMachines).all_placements()) {
      logged.push_back(placement.job.id);
    }
    std::sort(logged.begin(), logged.end());
    EXPECT_EQ(logged, input.logged);
    std::filesystem::remove_all(dir);
  }
}

TEST(FaultInjection, CombinerFaultStaysOnItsShard) {
  // Without a WAL a submit decides inline, so a crash site can fire on the
  // submitting thread. The fault must not escape submit_batch: the shard
  // is failed and keeps its consumer role (nothing decides on the broken
  // runner again), its worker exits, the run is not clean, and the
  // supervisor refuses the shard's jobs with retry-after. One pop per job:
  // job 1's pop passes, job 2's pop fires.
  using std::chrono::milliseconds;
  using std::chrono::seconds;
  const auto make = [](JobId id) {
    Job job;
    job.id = id;
    job.release = 0.0;
    job.proc = 1.0;
    job.deadline = 1000.0;
    return job;
  };
  const auto eventually = [](auto pred) {
    const auto give_up = std::chrono::steady_clock::now() + seconds(5);
    while (!pred() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
  };
  const std::thread::id self = std::this_thread::get_id();
  FaultPlan plan;
  plan.add({FaultSite::kDequeue, 0, 2});

  // The shard itself: the failed holder keeps the role.
  {
    FaultInjector injector(plan);
    MetricsRegistry metrics(1);
    std::atomic<std::size_t> decided_here{0};
    std::atomic<std::size_t> decided{0};
    ShardConfig config;
    config.batch_size = 1;
    config.pop_timeout = seconds(10);  // the worker wakes only when told
    config.faults = &injector;
    config.on_decision = [&](const Job&, const Decision&, std::uint64_t) {
      if (std::this_thread::get_id() == self) ++decided_here;
      ++decided;
    };
    Shard shard(
        0, [] { return std::make_unique<ThresholdScheduler>(kEps, 2); },
        config, metrics);
    shard.start();
    // The worker holds the role until its first park.
    std::this_thread::sleep_for(milliseconds(100));
    const std::vector<Job> jobs = {make(1), make(2), make(3)};
    ASSERT_EQ(shard
                  .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                     Shard::Clock::now())
                  .taken,
              jobs.size());
    shard.hand_off();
    // One claim runs on one thread: the claim that decided job 1 here
    // popped job 2 here too, and the fault fired on this thread.
    EXPECT_EQ(decided_here.load(), 1u);
    EXPECT_EQ(decided.load(), 1u);
    EXPECT_EQ(injector.fired(), 1u);
    EXPECT_TRUE(shard.worker_failed());
    EXPECT_TRUE(eventually([&] { return shard.worker_exited(); }))
        << "the worker outlived its failed shard";
    const Job late = make(4);
    ASSERT_EQ(shard.try_enqueue_batch(&late, nullptr, 1, Shard::Clock::now())
                  .taken,
              1u);
    shard.hand_off();
    EXPECT_EQ(decided.load(), 1u) << "a job was decided on a failed shard";
    EXPECT_EQ(shard.queue_size(), 2u) << "jobs 3 and 4 left the queue";
    shard.close();
    shard.join();
  }

  // The gateway around it: supervision and the run's result.
  {
    FaultInjector injector(plan);
    std::atomic<std::size_t> decided_here{0};
    GatewayConfig config;
    config.shards = 1;
    config.batch_size = 1;
    config.fault_injector = &injector;
    config.supervisor = fast_supervisor();
    // Silence alone never marks this shard down: only its exit does.
    config.supervisor.stall_threshold = seconds(20);
    config.supervisor.down_threshold = seconds(30);
    config.pop_timeout = seconds(10);
    config.on_decision = [&](int, const Job&, const Decision&,
                             std::uint64_t) {
      if (std::this_thread::get_id() == self) ++decided_here;
    };
    AdmissionGateway gateway(config, [](int) {
      return std::make_unique<ThresholdScheduler>(kEps, 2);
    });
    std::this_thread::sleep_for(milliseconds(100));
    const std::vector<Job> jobs = {make(1), make(2), make(3)};
    std::vector<Outcome> statuses(jobs.size());
    const BatchSubmitResult batch = gateway.submit_batch(jobs, statuses);
    EXPECT_EQ(batch.enqueued, jobs.size());
    EXPECT_EQ(decided_here.load(), 1u);
    EXPECT_EQ(injector.fired(), 1u);
    EXPECT_TRUE(eventually(
        [&] { return gateway.shard_health(0) == Health::kDown; }))
        << "the supervisor never saw the failed shard";
    EXPECT_EQ(gateway.submit(make(4)), Outcome::kRejectedRetryAfter);
    const GatewayResult result = gateway.finish();
    EXPECT_FALSE(result.clean());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find("injected fault"), std::string::npos)
        << result.errors[0];
    EXPECT_EQ(result.metrics.total.submitted, 1u);
  }
}

TEST(WalRecovery, NegativeJobIdsReplayAsAcceptedCommitments) {
  // A job id is an opaque i64 from the client, so a negative one is an
  // ordinary commitment: recovery must replay every accepted job whatever
  // its id, on the machine and at the start it was promised.
  const std::string dir = wal_dir("negative_ids");
  static constexpr int kPool = 4;
  GatewayConfig config;
  config.shards = 1;
  config.wal_dir = dir;
  config.supervisor.enabled = false;
  ShardDecisionLogs logs;
  capture_decisions(config, logs);
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kPool);
  });

  const std::vector<JobId> ids = {5, -1, 6, -2, -3, 7, -7,
                                  std::numeric_limits<JobId>::min(), 8};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Job job;
    job.id = ids[i];
    job.release = static_cast<double>(i);
    job.proc = 1.0 + 0.25 * static_cast<double>(i);
    job.deadline = job.release + 100.0;
    ASSERT_EQ(gateway.submit(job), Outcome::kEnqueued) << job.id;
  }
  const GatewayResult result = gateway.finish();
  ASSERT_TRUE(result.clean());
  ASSERT_EQ(logs[0].size(), ids.size());
  for (const DecisionRecord& record : logs[0]) {
    ASSERT_TRUE(record.decision.accepted) << record.job.id;
  }

  ThresholdScheduler fresh(kEps, kPool);
  fresh.reset();
  const RecoveryResult recovered =
      recover_commit_log(dir + "/shard-0.wal", kPool, &fresh);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.metrics.accepted, result.shards[0].metrics.accepted);
  EXPECT_EQ(recovered.metrics.accepted_volume,
            result.shards[0].metrics.accepted_volume);
  EXPECT_EQ(recovered.busy_until.size(), static_cast<std::size_t>(kPool));
  EXPECT_EQ(recovered.busy_until, result.shards[0].busy_until);
  EXPECT_EQ(fresh.machines(), kPool);
  const Schedule logged = schedule_from_wal(dir + "/shard-0.wal", kPool);
  for (const DecisionRecord& record : logs[0]) {
    const std::vector<Placement>& placed =
        logged.on_machine(record.decision.machine);
    const bool found =
        std::any_of(placed.begin(), placed.end(), [&](const Placement& p) {
          return p.job.id == record.job.id && p.start == record.decision.start;
        });
    EXPECT_TRUE(found) << "job " << record.job.id << " is not on machine "
                       << record.decision.machine << " after recovery";
  }
  std::filesystem::remove_all(dir);
}

/// Every accept the shard told through on_decision is in `replayed`, on the
/// machine and at the start it was told.
void expect_told_accepts_logged(const std::vector<DecisionRecord>& told,
                                const Schedule& replayed) {
  for (const DecisionRecord& record : told) {
    if (!record.decision.accepted) continue;
    const std::vector<Placement>& placed =
        replayed.on_machine(record.decision.machine);
    const bool found =
        std::any_of(placed.begin(), placed.end(), [&](const Placement& p) {
          return p.job.id == record.job.id && p.start == record.decision.start;
        });
    EXPECT_TRUE(found) << "told accept of job " << record.job.id
                       << " is not in the replayed log";
  }
}

/// The acceptance property: a randomized workload, a seeded random crash
/// site, a 1-shard WAL-backed gateway under fsync=batch. After the run
/// (crash, supervised restart, replay, resume), the shard's marks and
/// accepted totals must equal the log's, every record must re-validate,
/// the logged schedule must be legal for the instance, and every accept
/// told through on_decision must be in the log.
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
  config.wal_fsync = FsyncPolicy::kBatch;
  config.supervisor = fast_supervisor();
  config.pop_timeout = std::chrono::milliseconds(5);
  config.fault_injector = &injector;
  ShardDecisionLogs told;
  capture_decisions(config, told);
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
  const ShardResult& committed = result.shards[0];

  // 1. Replaying the log independently (read-only) reproduces the committed
  //    state exactly: zero accepted-and-logged jobs lost, none invented.
  //    recover_commit_log re-validates every record on the way.
  const std::string wal_path = config.wal_dir + "/shard-0.wal";
  const RecoveryResult replayed =
      recover_commit_log(wal_path, kMachines, nullptr,
                         /*truncate_file=*/false);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_FALSE(replayed.tail_truncated) << "batch fsync left a torn tail";
  EXPECT_EQ(committed.busy_until, replayed.busy_until);
  EXPECT_EQ(committed.metrics.accepted, replayed.records_replayed);
  EXPECT_EQ(committed.metrics.accepted_volume,
            replayed.metrics.accepted_volume);
  EXPECT_EQ(committed.metrics.makespan, replayed.metrics.makespan);
  const Schedule logged = schedule_from_wal(wal_path, kMachines);
  expect_told_accepts_logged(told[0], logged);

  // 2. The full logged schedule is legal for the instance (starts,
  //    deadlines, no overlap) — recovery resurrected no illegal state.
  const ValidationReport report = validate_schedule(instance, logged);
  EXPECT_TRUE(report.ok) << report.to_string();

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

}  // namespace
}  // namespace slacksched
