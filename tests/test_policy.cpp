// Tests for the policy subsystem (criticality classes, class-aware load
// shedding) and the config-validation contract it rides in with:
// per-message validate() coverage, the scenario registry, and the
// gateway's shed ordering — low criticality sheds first, the top class
// never.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/threshold.hpp"
#include "net/admission_server.hpp"
#include "policy/criticality.hpp"
#include "policy/shed_policy.hpp"
#include "service/gateway.hpp"
#include "workload/generators.hpp"

namespace slacksched {
namespace {

using net::AdmissionServerConfig;

constexpr double kEps = 0.1;

/// True iff some validate() message contains the needle — the contract is
/// "one human-readable message per problem", so tests match substrings,
/// not exact strings.
bool has_message(const std::vector<std::string>& errors,
                 const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(),
                     [&needle](const std::string& e) {
                       return e.find(needle) != std::string::npos;
                     });
}

// ---------- criticality classes ----------

TEST(Criticality, LabelsRoundTripAndAreFrozen) {
  EXPECT_EQ(criticality_label(Criticality::kBackground), "background");
  EXPECT_EQ(criticality_label(Criticality::kStandard), "standard");
  EXPECT_EQ(criticality_label(Criticality::kElevated), "elevated");
  EXPECT_EQ(criticality_label(Criticality::kCritical), "critical");
  for (std::uint8_t v = 0; v < kCriticalityCount; ++v) {
    const auto cls = static_cast<Criticality>(v);
    const auto back = criticality_from_label(criticality_label(cls));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, cls);
    EXPECT_EQ(criticality_index(cls), static_cast<std::size_t>(v));
  }
  EXPECT_FALSE(criticality_from_label("no-such-class").has_value());
  EXPECT_TRUE(criticality_valid(0));
  EXPECT_TRUE(criticality_valid(kCriticalityCount - 1));
  EXPECT_FALSE(criticality_valid(kCriticalityCount));
}

TEST(Criticality, DefaultJobClassIsTheLowest) {
  // The legacy compatibility anchor: a Job that never names a class is
  // background, the first class shed and the class every pre-criticality
  // WAL record and wire frame decodes to.
  Job job;
  EXPECT_EQ(job.criticality, Criticality::kBackground);
}

// ---------- shed policy ----------

TEST(ShedPolicy, DefaultsAreValid) {
  EXPECT_TRUE(ShedPolicyConfig{}.validate().empty());
}

TEST(ShedPolicy, ZeroLimitIsOneReadableMessage) {
  ShedPolicyConfig config;
  config.occupancy_limit[0] = 0.0;  // still non-decreasing: one problem
  const auto errors = config.validate();
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_TRUE(has_message(errors, "occupancy_limit[background]"));
  EXPECT_TRUE(has_message(errors, "must be > 0"));
}

TEST(ShedPolicy, DecreasingLimitsNameTheInvertedPair) {
  ShedPolicyConfig config;
  config.occupancy_limit = {0.5, 0.9, 0.75, 1.1};  // elevated below standard
  const auto errors = config.validate();
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_TRUE(has_message(errors, "non-decreasing"));
  EXPECT_TRUE(has_message(errors, "elevated"));
  EXPECT_TRUE(has_message(errors, "standard"));
}

TEST(ShedPolicy, ShouldShedComparesOccupancyToTheClassLimit) {
  const ShedPolicyConfig config;  // {0.5, 0.75, 0.9, 1.1}
  EXPECT_FALSE(config.should_shed(Criticality::kBackground, 7, 16));
  EXPECT_TRUE(config.should_shed(Criticality::kBackground, 8, 16));
  EXPECT_FALSE(config.should_shed(Criticality::kStandard, 11, 16));
  EXPECT_TRUE(config.should_shed(Criticality::kStandard, 12, 16));
  EXPECT_FALSE(config.should_shed(Criticality::kElevated, 14, 16));
  EXPECT_TRUE(config.should_shed(Criticality::kElevated, 15, 16));
  // A limit above 1.0 is "never policy-shed", even at a full queue.
  EXPECT_FALSE(config.should_shed(Criticality::kCritical, 16, 16));
}

TEST(ShedPolicy, RandomizedValidConfigsShedLowBeforeHighStructurally) {
  // The structural invariant behind "low criticality always sheds first":
  // for ANY valid (non-decreasing) limits and ANY occupancy, a shed
  // higher class implies every lower class sheds too.
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    ShedPolicyConfig config;
    double limit = rng.uniform(0.01, 0.5);
    for (std::size_t c = 0; c < kCriticalityCount; ++c) {
      config.occupancy_limit[c] = limit;
      limit += rng.uniform(0.0, 0.4);
    }
    ASSERT_TRUE(config.validate().empty());
    const std::size_t capacity = 1u << (1 + rng.next_u64() % 10);
    const std::size_t size = rng.next_u64() % (capacity + 1);
    for (std::size_t hi = 1; hi < kCriticalityCount; ++hi) {
      if (!config.should_shed(static_cast<Criticality>(hi), size, capacity)) {
        continue;
      }
      for (std::size_t lo = 0; lo < hi; ++lo) {
        EXPECT_TRUE(
            config.should_shed(static_cast<Criticality>(lo), size, capacity))
            << "class " << hi << " shed at " << size << "/" << capacity
            << " but class " << lo << " was not";
      }
    }
  }
}

// ---------- WorkloadConfig::validate ----------

TEST(WorkloadValidate, DefaultsAreValid) {
  EXPECT_TRUE(WorkloadConfig{}.validate().empty());
}

TEST(WorkloadValidate, EveryKnobHasItsOwnMessage) {
  {
    WorkloadConfig config;
    config.n = 0;
    EXPECT_TRUE(has_message(config.validate(), "n must be >= 1"));
  }
  {
    WorkloadConfig config;
    config.eps = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "eps must be > 0"));
  }
  {
    WorkloadConfig config;
    config.arrival_rate = -1.0;
    EXPECT_TRUE(has_message(config.validate(), "arrival_rate must be > 0"));
  }
  {
    WorkloadConfig config;
    config.arrival = ArrivalModel::kUniform;
    config.horizon = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "horizon must be > 0"));
  }
  {
    WorkloadConfig config;
    config.arrival = ArrivalModel::kBursty;
    config.burst_every = 0.0;
    config.burst_size = 0;
    const auto errors = config.validate();
    EXPECT_TRUE(has_message(errors, "burst_every must be > 0"));
    EXPECT_TRUE(has_message(errors, "burst_size must be >= 1"));
  }
  {
    WorkloadConfig config;
    config.arrival = ArrivalModel::kDiurnal;
    config.diurnal_period = 0.0;
    config.diurnal_amplitude = 1.0;
    const auto errors = config.validate();
    EXPECT_TRUE(has_message(errors, "diurnal_period must be > 0"));
    EXPECT_TRUE(has_message(errors, "diurnal_amplitude must be in [0, 1)"));
  }
  {
    WorkloadConfig config;
    config.size_min = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "size_min must be > 0"));
  }
  {
    WorkloadConfig config;
    config.size_min = 5.0;
    config.size_max = 1.0;
    EXPECT_TRUE(has_message(config.validate(), "must not exceed size_max"));
  }
  {
    WorkloadConfig config;
    config.pareto_alpha = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "pareto_alpha must be > 0"));
  }
  {
    WorkloadConfig config;
    config.size = SizeModel::kBimodal;
    config.bimodal_long_fraction = 1.5;
    EXPECT_TRUE(has_message(config.validate(),
                            "bimodal_long_fraction must be in [0, 1]"));
  }
  {
    WorkloadConfig config;
    config.eps = 0.5;
    config.slack_hi = 0.2;
    EXPECT_TRUE(has_message(config.validate(), "must be >= eps"));
  }
  {
    WorkloadConfig config;
    config.class_mix = {1.0, -0.5, 0.0, 0.0};
    EXPECT_TRUE(has_message(config.validate(), "class_mix[1] (standard)"));
  }
  {
    WorkloadConfig config;
    config.class_mix = {0.0, 0.0, 0.0, 0.0};
    EXPECT_TRUE(has_message(config.validate(), "positive total weight"));
  }
}

TEST(WorkloadValidate, GenerateThrowsListingEveryProblem) {
  WorkloadConfig config;
  config.n = 0;
  config.eps = -1.0;
  config.size_min = 0.0;
  try {
    (void)generate_workload(config);
    FAIL() << "generate_workload accepted an invalid config";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid WorkloadConfig"), std::string::npos);
    EXPECT_NE(what.find("n must be >= 1"), std::string::npos);
    EXPECT_NE(what.find("eps must be > 0"), std::string::npos);
    EXPECT_NE(what.find("size_min must be > 0"), std::string::npos);
  }
}

// ---------- scenario registry ----------

TEST(ScenarioRegistry, NamesAreStable) {
  EXPECT_EQ(scenario_names(),
            (std::vector<std::string>{"cloud-burst", "overload", "diurnal",
                                      "mixed-criticality"}));
  for (const std::string& name : scenario_names()) {
    const WorkloadConfig config = scenario(name, kEps, 7);
    EXPECT_TRUE(config.validate().empty()) << name;
    EXPECT_DOUBLE_EQ(config.eps, kEps) << name;
    EXPECT_EQ(config.seed, 7u) << name;
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsNamingTheKnownOnes) {
  try {
    (void)scenario("cloudburst", kEps, 1);
    FAIL() << "unknown scenario accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown workload scenario \"cloudburst\""),
              std::string::npos);
    EXPECT_NE(what.find("mixed-criticality"), std::string::npos);
  }
}

TEST(ScenarioRegistry, MixedCriticalityStreamCarriesEveryClass) {
  const Instance instance =
      generate_workload(scenario("mixed-criticality", kEps, 42));
  std::array<std::size_t, kCriticalityCount> seen{};
  for (const Job& job : instance.jobs()) {
    ++seen[criticality_index(job.criticality)];
  }
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    EXPECT_GT(seen[cls], 0u) << "class " << cls << " absent from the mix";
  }
  // Bottom-heavy like the configured weights {0.4, 0.3, 0.2, 0.1}.
  EXPECT_GT(seen[0], seen[3]);
}

TEST(ScenarioRegistry, DegenerateClassMixIsBitIdenticalToLegacy) {
  // All weight on the lowest class skips the class draw entirely, whatever
  // the absolute scale — the random stream, and therefore the instance, is
  // the one pre-criticality builds generated.
  WorkloadConfig legacy = scenario("overload", kEps, 99);
  WorkloadConfig scaled = legacy;
  scaled.class_mix = {5.0, 0.0, 0.0, 0.0};
  const Instance a = generate_workload(legacy);
  const Instance b = generate_workload(scaled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].release, b.jobs()[i].release);
    EXPECT_EQ(a.jobs()[i].proc, b.jobs()[i].proc);
    EXPECT_EQ(a.jobs()[i].deadline, b.jobs()[i].deadline);
    EXPECT_EQ(a.jobs()[i].criticality, Criticality::kBackground);
    EXPECT_EQ(b.jobs()[i].criticality, Criticality::kBackground);
  }
}

// ---------- AdmissionServerConfig / GatewayConfig validation ----------

TEST(ServerValidate, DefaultsAreValid) {
  EXPECT_TRUE(AdmissionServerConfig{}.validate().empty());
}

TEST(ServerValidate, EveryKnobHasItsOwnMessage) {
  {
    AdmissionServerConfig config;
    config.bind_address.clear();
    EXPECT_TRUE(has_message(config.validate(), "bind_address"));
  }
  {
    AdmissionServerConfig config;
    config.backlog = 0;
    EXPECT_TRUE(has_message(config.validate(), "backlog must be >= 1"));
  }
  {
    AdmissionServerConfig config;
    config.loops = 0;
    EXPECT_TRUE(has_message(config.validate(), "loops must be >= 1"));
  }
  {
    AdmissionServerConfig config;
    config.max_http_request = 10;
    EXPECT_TRUE(
        has_message(config.validate(), "max_http_request must be >= 64"));
  }
  {
    AdmissionServerConfig config;
    config.idle_timeout = std::chrono::milliseconds(-1);
    EXPECT_TRUE(has_message(config.validate(), "idle_timeout must be >= 0"));
  }
  {
    AdmissionServerConfig config;
    config.idle_timeout = std::chrono::milliseconds(100);
    config.reap_interval = std::chrono::milliseconds(0);
    EXPECT_TRUE(has_message(config.validate(), "reap_interval"));
  }
  {
    AdmissionServerConfig config;
    config.accept_backoff = std::chrono::milliseconds(0);
    EXPECT_TRUE(has_message(config.validate(), "accept_backoff"));
  }
}

TEST(ServerValidate, NestedGatewayProblemsArePrefixed) {
  AdmissionServerConfig config;
  config.gateway.shards = 0;
  const auto errors = config.validate();
  EXPECT_TRUE(has_message(errors, "gateway: "));
}

TEST(GatewayValidate, ShedPolicyProblemsArePrefixed) {
  GatewayConfig config;
  ShedPolicyConfig shed;
  shed.occupancy_limit = {0.9, 0.5, 0.9, 1.1};  // decreasing
  config.shed_policy = shed;
  const auto errors = config.validate();
  EXPECT_TRUE(has_message(errors, "shed_policy: "));
}

TEST(GatewayValidate, SupervisorRestartProblemsArePrefixed) {
  // Restart pacing belongs to the shard supervisor alone: a failover
  // driver has neither knob.
  GatewayConfig config;
  config.supervisor.max_attempts = -1;
  config.supervisor.backoff.factor = 0.5;
  const auto errors = config.validate();
  EXPECT_TRUE(has_message(errors, "supervisor: max_attempts must be >= 0"));
  EXPECT_TRUE(has_message(errors, "supervisor: backoff.factor must be >= 1"));
}

// ---------- gateway: class-aware shed ordering ----------

/// Accept-everything scheduler whose on_arrival blocks until released, so
/// the test can hold the queue at an exact occupancy while probing the
/// shed policy class by class.
class GatedScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    entered.fetch_add(1, std::memory_order_release);
    while (!released.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const TimePoint start = std::max(frontier_, job.release);
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    if (start + job.proc > job.deadline) return Decision::reject();
    frontier_ = start + job.proc;
    return Decision::accept(0, start);
  }
  int machines() const override { return 1; }
  void reset() override { frontier_ = 0.0; }
  std::string name() const override { return "Gated"; }

  std::atomic<int> entered{0};
  std::atomic<bool> released{false};
  int delay_us = 0;

 private:
  TimePoint frontier_ = 0.0;
};

/// Threshold whose on_arrival blocks until released: the consumer holds
/// still while the test offers a whole stream, so the shed policy sees a
/// queue that only the submissions fill. `entered` turns true once a
/// decision is held.
class GatedThreshold final : public OnlineScheduler {
 public:
  GatedThreshold(double eps, int machines, const std::atomic<bool>* released,
                 std::atomic<bool>* entered)
      : inner_(eps, machines), released_(released), entered_(entered) {}

  Decision on_arrival(const Job& job) override {
    entered_->store(true, std::memory_order_release);
    while (!released_->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return inner_.on_arrival(job);
  }
  int machines() const override { return inner_.machines(); }
  void reset() override { inner_.reset(); }
  std::string name() const override { return "GatedThreshold"; }

 private:
  ThresholdScheduler inner_;
  const std::atomic<bool>* released_;
  std::atomic<bool>* entered_;
};

/// Submits `job` on a helper thread and returns that thread once the job's
/// decision is held inside `gate`, with the consumer role. Release the
/// gate, then join it; `status` is the helper's submit outcome.
std::thread hold_role(AdmissionGateway& gateway, const Job& job,
                      GatedScheduler& gate, Outcome& status) {
  std::thread holder([&gateway, job, &status] { status = gateway.submit(job); });
  while (gate.entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return holder;
}

Job make_class_job(JobId id, Criticality criticality) {
  Job job;
  job.id = id;
  job.release = 0.0;
  job.proc = 1.0;
  job.deadline = 1e9;
  job.criticality = criticality;
  return job;
}

TEST(GatewayShed, ScriptedOccupancyShedsExactlyByClassThreshold) {
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 16;
  config.supervisor.enabled = false;
  config.shed_policy = ShedPolicyConfig{};  // {0.5, 0.75, 0.9, 1.1}
  GatedScheduler* gate = nullptr;
  AdmissionGateway gateway(config, [&gate](int) {
    auto scheduler = std::make_unique<GatedScheduler>();
    gate = scheduler.get();
    return scheduler;
  });
  ASSERT_NE(gate, nullptr);

  // Park the consumer inside the first decision so the queue occupancy
  // from here on is exactly what this thread scripted. A submit on an idle
  // shard decides its job itself, so a helper thread submits it and holds
  // the consumer role there.
  JobId next = 1;
  Outcome first = Outcome::kRejectedClosed;
  std::thread holder = hold_role(
      gateway, make_class_job(next++, Criticality::kCritical), *gate, first);

  auto fill = [&](Criticality criticality, int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(gateway.submit(make_class_job(next++, criticality)),
                Outcome::kEnqueued)
          << "fill of class " << criticality_label(criticality);
    }
  };
  // Occupancy 0/16 .. 7/16 < 0.5: background still admitted.
  fill(Criticality::kBackground, 8);
  // 8/16 = 0.5: background sheds, standard does not.
  EXPECT_EQ(gateway.submit(make_class_job(next++, Criticality::kBackground)),
            Outcome::kRejectedCriticality);
  fill(Criticality::kStandard, 4);
  // 12/16 = 0.75: standard (and everything below it) sheds.
  EXPECT_EQ(gateway.submit(make_class_job(next++, Criticality::kStandard)),
            Outcome::kRejectedCriticality);
  EXPECT_EQ(gateway.submit(make_class_job(next++, Criticality::kBackground)),
            Outcome::kRejectedCriticality);
  fill(Criticality::kElevated, 3);
  // 15/16 = 0.9375 >= 0.9: elevated sheds; critical still goes through.
  EXPECT_EQ(gateway.submit(make_class_job(next++, Criticality::kElevated)),
            Outcome::kRejectedCriticality);
  fill(Criticality::kCritical, 1);
  // 16/16: critical is never policy-shed — the full ring backpressures it.
  EXPECT_EQ(gateway.submit(make_class_job(next++, Criticality::kCritical)),
            Outcome::kRejectedQueueFull);

  gate->released.store(true, std::memory_order_release);
  holder.join();
  ASSERT_EQ(first, Outcome::kEnqueued);
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());

  const ShardMetricsSnapshot& total = result.metrics.total;
  EXPECT_EQ(total.criticality_shed, 4u);
  EXPECT_EQ(total.class_shed,
            (std::array<std::size_t, kCriticalityCount>{2, 1, 1, 0}));
  EXPECT_EQ(total.class_enqueued,
            (std::array<std::size_t, kCriticalityCount>{8, 4, 3, 2}));
  EXPECT_EQ(total.backpressure_rejected, 1u);
}

TEST(GatewayShed, BatchOccupancyCountsTheJobsAlreadyGrouped) {
  // One giant batch must not bypass the thresholds: the occupancy check
  // for job i includes the i jobs already grouped for the same shard.
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 16;
  config.supervisor.enabled = false;
  config.shed_policy = ShedPolicyConfig{};
  GatedScheduler* gate = nullptr;
  AdmissionGateway gateway(config, [&gate](int) {
    auto scheduler = std::make_unique<GatedScheduler>();
    gate = scheduler.get();
    return scheduler;
  });

  // A helper's job holds the consumer role, so the batch below only queues
  // (on an idle shard its submit would decide the jobs it grouped).
  Outcome first = Outcome::kRejectedClosed;
  std::thread holder = hold_role(
      gateway, make_class_job(100, Criticality::kCritical), *gate, first);

  std::vector<Job> jobs;
  for (JobId id = 0; id < 10; ++id) {
    jobs.push_back(make_class_job(id, Criticality::kBackground));
  }
  std::vector<Outcome> statuses(jobs.size());
  const BatchSubmitResult result = gateway.submit_batch(jobs, statuses);
  EXPECT_EQ(result.enqueued, 8u);  // 8/16 reaches the 0.5 background limit
  EXPECT_EQ(result.rejected_criticality, 2u);
  EXPECT_EQ(statuses[7], Outcome::kEnqueued);
  EXPECT_EQ(statuses[8], Outcome::kRejectedCriticality);
  EXPECT_EQ(statuses[9], Outcome::kRejectedCriticality);

  gate->released.store(true, std::memory_order_release);
  holder.join();
  (void)gateway.finish();
}

TEST(GatewayShed, RandomizedOverloadShedsLowClassesFirst) {
  // The end-to-end ordering property on a randomized mixed-criticality
  // overload stream: per-class shed fractions are (statistically)
  // non-increasing in the class, and the top class is never policy-shed.
  WorkloadConfig wconfig = scenario("mixed-criticality", kEps, 2026);
  wconfig.n = 2000;
  const Instance instance = generate_workload(wconfig);

  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 64;
  config.batch_size = 16;
  config.supervisor.enabled = false;
  config.shed_policy = ShedPolicyConfig{};
  AdmissionGateway gateway(config, [](int) {
    auto scheduler = std::make_unique<GatedScheduler>();
    scheduler->released.store(true);  // no gating: just a slow consumer
    scheduler->delay_us = 100;        // guarantees sustained queue pressure
    return scheduler;
  });

  // Several producers: whichever holds the consumer role decides slowly
  // while the others keep offering, so the queue stays under pressure (a
  // lone producer would decide each of its own jobs inline).
  constexpr std::size_t kProducers = 4;
  std::array<std::array<std::size_t, kCriticalityCount>, kProducers>
      offered_by{};
  std::array<std::array<std::size_t, kCriticalityCount>, kProducers> shed_by{};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::vector<Job>& jobs = instance.jobs();
      for (std::size_t i = p; i < jobs.size(); i += kProducers) {
        const std::size_t cls = criticality_index(jobs[i].criticality);
        ++offered_by[p][cls];
        if (gateway.submit(jobs[i]) == Outcome::kRejectedCriticality) {
          ++shed_by[p][cls];
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  std::array<std::size_t, kCriticalityCount> offered{};
  std::array<std::size_t, kCriticalityCount> shed{};
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
      offered[cls] += offered_by[p][cls];
      shed[cls] += shed_by[p][cls];
    }
  }
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());

  // The live per-class counters agree with the per-submit outcomes.
  EXPECT_EQ(result.metrics.total.class_shed, shed);
  EXPECT_EQ(result.metrics.total.criticality_shed,
            shed[0] + shed[1] + shed[2] + shed[3]);
  EXPECT_EQ(shed[criticality_index(Criticality::kCritical)], 0u);
  // Enough pressure that the ordering is observable at all.
  ASSERT_GT(shed[0], 0u) << "stream never reached the background threshold";
  // Shed fractions non-increasing in the class (small statistical slack:
  // classes sample the same arrival process independently).
  double prev = 1.0;
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    ASSERT_GT(offered[cls], 0u);
    const double frac = static_cast<double>(shed[cls]) /
                        static_cast<double>(offered[cls]);
    EXPECT_LE(frac, prev + 0.05)
        << "class " << cls << " shed a larger fraction than class "
        << cls - 1;
    prev = frac;
  }
}

TEST(GatewayShed, HeldOverloadShedsStrictlyLowBeforeHigh) {
  // The strict form of the ordering property: with the consumer held at
  // its first job, every class sheds a strictly smaller fraction of its
  // offered jobs than the class below it, the top class sheds none, and
  // the live per-class counters agree with the per-submit outcomes.
  WorkloadConfig wconfig = scenario("mixed-criticality", kEps, 20260807);
  wconfig.n = 4000;
  const Instance instance = generate_workload(wconfig);

  std::atomic<bool> released{false};
  std::atomic<bool> entered{false};
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 256;
  config.batch_size = 1;
  config.supervisor.enabled = false;
  config.shed_policy = ShedPolicyConfig{};
  AdmissionGateway gateway(config, [&released, &entered](int) {
    return std::make_unique<GatedThreshold>(kEps, 4, &released, &entered);
  });

  std::array<std::size_t, kCriticalityCount> offered{};
  std::array<std::size_t, kCriticalityCount> shed{};
  const auto offer = [&](const Job& job, Outcome outcome) {
    const std::size_t cls = criticality_index(job.criticality);
    ++offered[cls];
    if (outcome == Outcome::kRejectedCriticality) ++shed[cls];
  };
  // The first job holds the consumer role on a helper thread (a submit on
  // an idle shard decides its job itself); this thread offers the rest.
  const std::vector<Job>& jobs = instance.jobs();
  Outcome first = Outcome::kRejectedClosed;
  std::thread holder(
      [&gateway, &jobs, &first] { first = gateway.submit(jobs.front()); });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    offer(jobs[i], gateway.submit(jobs[i]));
  }
  released.store(true, std::memory_order_release);
  holder.join();
  offer(jobs.front(), first);
  const GatewayResult result = gateway.finish();
  EXPECT_TRUE(result.clean());

  EXPECT_EQ(result.metrics.total.class_shed, shed);
  EXPECT_EQ(shed[criticality_index(Criticality::kCritical)], 0u);
  std::array<double, kCriticalityCount> frac{};
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    ASSERT_GT(offered[cls], 0u) << "class " << cls << " never offered";
    frac[cls] = static_cast<double>(shed[cls]) /
                static_cast<double>(offered[cls]);
  }
  for (std::size_t cls = 1; cls < kCriticalityCount; ++cls) {
    EXPECT_GT(frac[cls - 1], frac[cls])
        << "class " << cls << " shed " << frac[cls]
        << " of its offered jobs, not strictly below class " << cls - 1
        << " at " << frac[cls - 1];
  }
}

}  // namespace
}  // namespace slacksched
