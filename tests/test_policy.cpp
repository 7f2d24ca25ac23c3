// Tests for the policy subsystem (criticality classes, class-aware load
// shedding, the elastic capacity controller) and the config-validation
// contract it rides in with: per-message validate() coverage, the
// scenario registry, the FrontierSet elastic surface, and the properties
// the elastic machine pool is built on — low criticality sheds first, a
// shrink never breaks an accepted commitment, and WAL replay reproduces
// the exact post-resize machine count (including across SIGKILL).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "core/frontier_set.hpp"
#include "core/threshold.hpp"
#include "net/admission_server.hpp"
#include "policy/capacity_controller.hpp"
#include "policy/criticality.hpp"
#include "policy/shed_policy.hpp"
#include "sched/validator.hpp"
#include "service/commit_log.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"
#include "service/recovery.hpp"
#include "service/shard.hpp"
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

std::string test_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "slacksched_policy_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

// ---------- capacity controller: validation ----------

TEST(CapacityController, DefaultsAreValid) {
  EXPECT_TRUE(CapacityControllerConfig{}.validate().empty());
}

TEST(CapacityController, EveryKnobHasItsOwnMessage) {
  {
    CapacityControllerConfig config;
    config.min_machines = 0;
    EXPECT_TRUE(has_message(config.validate(), "min_machines must be >= 1"));
  }
  {
    CapacityControllerConfig config;
    config.min_machines = 8;
    config.max_machines = 4;
    EXPECT_TRUE(has_message(config.validate(), "must be >= min_machines"));
  }
  {
    CapacityControllerConfig config;
    config.window = 0;
    EXPECT_TRUE(has_message(config.validate(), "window must be >= 1"));
  }
  {
    CapacityControllerConfig config;
    config.grow_utilization = 1.5;
    EXPECT_TRUE(has_message(config.validate(),
                            "grow_utilization must be in (0, 1]"));
  }
  {
    CapacityControllerConfig config;
    config.shrink_utilization = -0.1;
    EXPECT_TRUE(
        has_message(config.validate(), "shrink_utilization must be >= 0"));
  }
  {
    CapacityControllerConfig config;
    config.hysteresis_gap = -0.5;
    EXPECT_TRUE(has_message(config.validate(), "hysteresis_gap must be >= 0"));
  }
  {
    CapacityControllerConfig config;
    config.shrink_utilization = 0.85;  // gap 0.05 < required 0.1
    EXPECT_TRUE(has_message(config.validate(), "oscillates"));
  }
  {
    CapacityControllerConfig config;
    config.grow_shed_rate = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "grow_shed_rate must be > 0"));
  }
}

// ---------- capacity controller: decision behavior ----------

CapacityControllerConfig small_window() {
  CapacityControllerConfig config;
  config.min_machines = 2;
  config.max_machines = 8;
  config.window = 4;
  config.cooldown_windows = 1;
  return config;
}

/// Feeds `n` identical observations.
void feed(CapacityController& controller, int n, int busy, int active,
          std::size_t shed = 0, std::size_t offered = 0) {
  for (int i = 0; i < n; ++i) controller.observe(busy, active, shed, offered);
}

TEST(CapacityController, SilentUntilTheWindowFills) {
  CapacityController controller(small_window());
  feed(controller, 3, 4, 4);  // utilization 1.0 but only 3 of 4 observations
  EXPECT_EQ(controller.decide(4), CapacityAction::kNone);
  controller.observe(4, 4, 0, 0);
  EXPECT_EQ(controller.decide(4), CapacityAction::kGrow);
}

TEST(CapacityController, GrowsOnSustainedHighUtilization) {
  CapacityController controller(small_window());
  feed(controller, 4, 4, 4);
  EXPECT_EQ(controller.decide(4), CapacityAction::kGrow);
}

TEST(CapacityController, GrowsOnShedRateEvenWhenUtilizationIsLow) {
  CapacityController controller(small_window());
  // 2% of offered submissions shed: capacity is the bottleneck whatever
  // the frontier utilization says.
  feed(controller, 4, 1, 4, /*shed=*/2, /*offered=*/100);
  EXPECT_EQ(controller.decide(4), CapacityAction::kGrow);
}

TEST(CapacityController, ShrinksOnSustainedLowUtilization) {
  CapacityController controller(small_window());
  feed(controller, 4, 1, 4);  // utilization 0.25 <= 0.4
  EXPECT_EQ(controller.decide(4), CapacityAction::kShrink);
}

TEST(CapacityController, AnyShedInTheWindowBlocksShrink) {
  CapacityController controller(small_window());
  feed(controller, 3, 1, 4);
  controller.observe(1, 4, /*shed=*/1, /*offered=*/1000);
  EXPECT_EQ(controller.decide(4), CapacityAction::kNone);
}

TEST(CapacityController, MidBandHoldsSteady) {
  CapacityController controller(small_window());
  feed(controller, 4, 3, 4);  // utilization 0.75: between 0.4 and 0.9
  EXPECT_EQ(controller.decide(4), CapacityAction::kNone);
}

TEST(CapacityController, RespectsMachineBounds) {
  CapacityController controller(small_window());
  feed(controller, 4, 8, 8);
  EXPECT_EQ(controller.decide(/*active=*/8), CapacityAction::kNone)
      << "grow at max_machines";
  feed(controller, 4, 0, 2);
  EXPECT_EQ(controller.decide(/*active=*/2), CapacityAction::kNone)
      << "shrink at min_machines";
}

TEST(CapacityController, CooldownSilencesWholeWindowsAfterAResize) {
  CapacityController controller(small_window());
  feed(controller, 4, 4, 4);
  EXPECT_EQ(controller.decide(4), CapacityAction::kGrow);
  controller.on_resized();  // arms cooldown_windows = 1
  feed(controller, 4, 5, 5);
  EXPECT_EQ(controller.decide(5), CapacityAction::kNone) << "cooldown window";
  feed(controller, 4, 5, 5);
  EXPECT_EQ(controller.decide(5), CapacityAction::kGrow)
      << "cooldown expired after one full window";
}

TEST(CapacityController, UnappliedDecisionDoesNotArmCooldown) {
  CapacityController controller(small_window());
  feed(controller, 4, 4, 4);
  EXPECT_EQ(controller.decide(4), CapacityAction::kGrow);
  // The shard could not apply it (no on_resized): the next window decides
  // again immediately.
  feed(controller, 4, 4, 4);
  EXPECT_EQ(controller.decide(4), CapacityAction::kGrow);
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

TEST(GatewayValidate, ShedPolicyAndElasticProblemsArePrefixed) {
  GatewayConfig config;
  ShedPolicyConfig shed;
  shed.occupancy_limit = {0.9, 0.5, 0.9, 1.1};  // decreasing
  config.shed_policy = shed;
  CapacityControllerConfig elastic;
  elastic.window = 0;
  config.elastic = elastic;
  const auto errors = config.validate();
  EXPECT_TRUE(has_message(errors, "shed_policy: "));
  EXPECT_TRUE(has_message(errors, "elastic: "));
}

// ---------- FrontierSet: elastic surface ----------

TEST(FrontierSetElastic, NeverResizedSetLooksFixed) {
  FrontierSet set(3);
  EXPECT_EQ(set.size(), 3);
  EXPECT_EQ(set.active_machines(), 3);
  for (int m = 0; m < 3; ++m) {
    EXPECT_TRUE(set.is_active(m));
    EXPECT_FALSE(set.is_retiring(m));
  }
}

TEST(FrontierSetElastic, AddMachineAppendsThenReusesRetiredIndices) {
  FrontierSet set(2);
  EXPECT_EQ(set.add_machine(), 2);  // brand-new physical index
  EXPECT_EQ(set.size(), 3);
  EXPECT_EQ(set.active_machines(), 3);

  set.update(0, 5.0);
  set.update(1, 3.0);
  set.update(2, 1.0);
  set.begin_retire(2);
  EXPECT_TRUE(set.is_retiring(2));
  EXPECT_EQ(set.active_machines(), 2);
  EXPECT_FALSE(set.retire_drained(2, 0.5)) << "frontier 1.0 not yet drained";
  EXPECT_TRUE(set.retire_drained(2, 1.0));
  set.finish_retire(2);
  EXPECT_FALSE(set.is_retiring(2));
  EXPECT_FALSE(set.is_active(2));

  // The lowest retired index is reactivated with a fresh frontier.
  EXPECT_EQ(set.add_machine(), 2);
  EXPECT_TRUE(set.is_active(2));
  EXPECT_EQ(set.frontier(2), 0.0);
  EXPECT_EQ(set.size(), 3) << "indices are reused, never renumbered";
}

TEST(FrontierSetElastic, RetiringMachineLeavesEveryFitQuery) {
  FrontierSet set(3);
  set.update(0, 10.0);
  set.update(1, 4.0);
  set.update(2, 1.0);
  set.begin_retire(1);
  EXPECT_EQ(set.position_of(1), -1);
  for (int i = 0; i < 50; ++i) {
    const double proc = 0.5 + 0.1 * i;
    const int best = set.best_fit(0.0, proc, 1e9);
    const int least = set.least_loaded_fit(0.0, proc, 1e9);
    EXPECT_NE(best, 1);
    EXPECT_NE(least, 1);
  }
  EXPECT_NE(set.min_idle_machine(20.0), 1)
      << "a drained-but-retiring machine is still not placeable";
}

TEST(FrontierSetElastic, RetireCandidateIsMinFrontierHighestIndexOnTies) {
  FrontierSet set(4);
  set.update(0, 5.0);
  set.update(1, 2.0);
  set.update(2, 2.0);
  set.update(3, 7.0);
  // Min frontier 2.0 is shared by machines 1 and 2; the candidate is the
  // last sorted position: ties order by ascending index, so machine 2.
  EXPECT_EQ(set.retire_candidate(), 2);
  set.begin_retire(2);
  EXPECT_EQ(set.retire_candidate(), 1);
}

TEST(FrontierSetElastic, RandomizedLifecycleKeepsTheOrderConsistent) {
  // Property: under an arbitrary interleaving of updates, grows and
  // retires, the sorted order holds exactly the active machines, sorted by
  // (frontier desc, index asc), and a retiring machine's frontier is
  // untouched until finish_retire.
  Rng rng(7);
  FrontierSet set(3);
  std::vector<double> retiring_frontier(64, -1.0);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_u64() % 10;
    if (op < 6) {  // update a random active machine
      std::vector<int> active;
      for (int m = 0; m < set.size(); ++m) {
        if (set.is_active(m)) active.push_back(m);
      }
      const int machine =
          active[static_cast<std::size_t>(rng.next_u64() % active.size())];
      set.update(machine, rng.uniform(0.0, 100.0));
    } else if (op < 7) {
      if (set.size() < 60) (void)set.add_machine();
    } else if (op < 9) {
      if (set.active_machines() >= 2) {
        const int candidate = set.retire_candidate();
        ASSERT_TRUE(set.is_active(candidate));
        retiring_frontier[static_cast<std::size_t>(candidate)] =
            set.frontier(candidate);
        set.begin_retire(candidate);
      }
    } else {  // try to finish one drained retirement
      for (int m = 0; m < set.size(); ++m) {
        if (!set.is_retiring(m)) continue;
        EXPECT_EQ(set.frontier(m),
                  retiring_frontier[static_cast<std::size_t>(m)])
            << "a drain must not move the frontier";
        if (set.retire_drained(m, rng.uniform(0.0, 120.0))) {
          set.finish_retire(m);
        }
        break;
      }
    }

    // Invariants after every step.
    int active_count = 0;
    for (int m = 0; m < set.size(); ++m) {
      if (set.is_active(m)) {
        ++active_count;
        const int pos = set.position_of(m);
        ASSERT_GE(pos, 0);
        ASSERT_EQ(set.machine_at(pos), m);
      } else {
        ASSERT_EQ(set.position_of(m), -1);
      }
    }
    ASSERT_EQ(active_count, set.active_machines());
    for (int pos = 1; pos < set.active_machines(); ++pos) {
      const double prev = set.frontier_at(pos - 1);
      const double here = set.frontier_at(pos);
      ASSERT_GE(prev, here) << "sorted order violated at position " << pos;
      if (prev == here) {
        ASSERT_LT(set.machine_at(pos - 1), set.machine_at(pos))
            << "equal frontiers must order by ascending machine index";
      }
    }
  }
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
  // from here on is exactly what this thread scripted.
  JobId next = 1;
  ASSERT_EQ(gateway.submit(make_class_job(next++, Criticality::kCritical)),
            Outcome::kEnqueued);
  while (gate->entered.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

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

  std::array<std::size_t, kCriticalityCount> offered{};
  std::array<std::size_t, kCriticalityCount> shed{};
  for (const Job& job : instance.jobs()) {
    const std::size_t cls = criticality_index(job.criticality);
    ++offered[cls];
    if (gateway.submit(job) == Outcome::kRejectedCriticality) ++shed[cls];
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

// ---------- elastic shard: WAL resize determinism ----------

/// Decodes the job-id stream of a commit log (control sentinels included),
/// bypassing recovery — the tests assert on the raw control sequence.
std::vector<JobId> wal_record_ids(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<JobId> ids;
  std::size_t offset = kWalHeaderBytes;
  while (offset + kWalRecordBytes <= bytes.size()) {
    std::int64_t id = 0;
    std::memcpy(&id, bytes.data() + offset + kWalFrameBytes, sizeof(id));
    ids.push_back(static_cast<JobId>(id));
    offset += kWalRecordBytes;
  }
  return ids;
}

ShardConfig elastic_shard_config(const std::string& wal_path) {
  ShardConfig config;
  config.queue_capacity = 2048;
  config.batch_size = 1;  // one observation per job: deterministic stream
  config.wal_path = wal_path;
  config.wal_fsync = FsyncPolicy::kEveryCommit;
  CapacityControllerConfig elastic;
  elastic.min_machines = 2;
  elastic.max_machines = 6;
  elastic.window = 2;
  elastic.cooldown_windows = 0;
  config.elastic = elastic;
  return config;
}

/// Two-phase elastic workload: an overloaded near-slack burst that drives
/// utilization to 1 (grow to max), then a sparse far-future trickle that
/// leaves almost every machine idle (shrink with drains).
std::vector<Job> elastic_two_phase_jobs() {
  std::vector<Job> jobs;
  JobId id = 1;
  for (int i = 0; i < 120; ++i) {  // phase A: overload
    Job job;
    job.id = id++;
    job.release = 0.1 * i;
    job.proc = 1.0;
    job.deadline = job.release + 1.5;
    jobs.push_back(job);
  }
  for (int i = 0; i < 40; ++i) {  // phase B: idle trickle
    Job job;
    job.id = id++;
    job.release = 1000.0 + 50.0 * i;
    job.proc = 0.1;
    job.deadline = job.release + 10.0;
    jobs.push_back(job);
  }
  return jobs;
}

/// Runs the two-phase stream through one elastic WAL-backed shard with a
/// fully deterministic batch partition: every job is enqueued before the
/// worker starts and the queue is already closed, so the consumer sees
/// exactly one single-job batch per job.
struct ElasticRunOutcome {
  int final_active = 0;
  int initial_machines = 0;
  std::vector<JobId> control_ids;
};

ElasticRunOutcome run_elastic_shard(const std::string& wal_path,
                                    FaultInjector* faults = nullptr) {
  MetricsRegistry metrics(1);
  ShardConfig config = elastic_shard_config(wal_path);
  config.faults = faults;
  Shard shard(
      0, [] { return std::make_unique<ThresholdScheduler>(0.5, 2); },
      config, metrics);
  const std::vector<Job> jobs = elastic_two_phase_jobs();
  EXPECT_EQ(shard
                .try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                   Shard::Clock::now())
                .taken,
            jobs.size());
  shard.close();
  shard.start();
  // Wait for the worker to drain the (closed) queue or die at a fault.
  while (!shard.worker_exited()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (shard.worker_failed() && faults != nullptr) {
    // The injected crash fired: a supervised restart resumes the same
    // queue from the replayed WAL — including a mid-flight drain.
    EXPECT_TRUE(shard.restart()) << shard.last_error();
    shard.close();
    while (!shard.worker_exited()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(shard.worker_failed()) << shard.last_error();
  }
  shard.join();

  ElasticRunOutcome outcome;
  outcome.final_active = shard.scheduler().active_machines();
  outcome.initial_machines = 2;
  std::vector<JobId> ids = wal_record_ids(wal_path);
  for (const JobId id : ids) {
    if (wal_is_control_id(id)) outcome.control_ids.push_back(id);
  }
  return outcome;
}

TEST(ElasticShard, GrowsShrinksAndReplaysToTheExactMachineCount) {
  const std::string dir = test_dir("elastic_replay");
  const std::string wal = dir + "/shard-0.wal";
  const ElasticRunOutcome run = run_elastic_shard(wal);

  // The two-phase load actually exercised both directions.
  const auto count = [&run](JobId id) {
    return std::count(run.control_ids.begin(), run.control_ids.end(), id);
  };
  EXPECT_GE(count(kWalControlGrow), 1) << "overload phase never grew";
  EXPECT_GE(count(kWalControlRetireBegin), 1) << "idle phase never shrank";
  EXPECT_GE(count(kWalControlRetireDone), 1) << "no drain ever completed";
  EXPECT_LE(count(kWalControlRetireBegin) - count(kWalControlRetireDone), 1)
      << "at most one drain may be in flight";

  // Replay against a fresh scheduler reproduces the post-resize count.
  ThresholdScheduler fresh(0.5, 2);
  fresh.reset();
  const RecoveryResult replayed = recover_commit_log(
      wal, run.initial_machines, &fresh, /*truncate_file=*/false);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_FALSE(replayed.tail_truncated);
  EXPECT_EQ(fresh.active_machines(), run.final_active);

  // And the run itself is deterministic: an identical second run logs the
  // identical control sequence.
  const std::string dir2 = test_dir("elastic_replay_again");
  const ElasticRunOutcome rerun = run_elastic_shard(dir2 + "/shard-0.wal");
  EXPECT_EQ(rerun.control_ids, run.control_ids);
  EXPECT_EQ(rerun.final_active, run.final_active);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(ElasticShard, CrashAtResizeGrowReplaysTheLoggedGrow) {
  const std::string dir = test_dir("elastic_crash_grow");
  const std::string wal = dir + "/shard-0.wal";
  FaultPlan plan;
  plan.add({FaultSite::kResizeGrow, 0, 1, FaultAction::kThrow});
  FaultInjector injector(plan);
  const ElasticRunOutcome run = run_elastic_shard(wal, &injector);
  EXPECT_EQ(injector.fired(), 1u) << "the grow crash site never fired";

  ThresholdScheduler fresh(0.5, 2);
  fresh.reset();
  const RecoveryResult replayed =
      recover_commit_log(wal, 2, &fresh, /*truncate_file=*/false);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(fresh.active_machines(), run.final_active);
  std::filesystem::remove_all(dir);
}

TEST(ElasticShard, CrashMidDrainIsRediscoveredAndFinished) {
  // kResizeShrink's first hit is right after the retire-begin record: the
  // worker dies with a machine mid-drain. The restart must rediscover the
  // drain from the replayed scheduler (RetireBegin without RetireDone)
  // and finish it, so the log ends with a matched RetireDone.
  const std::string dir = test_dir("elastic_crash_drain");
  const std::string wal = dir + "/shard-0.wal";
  FaultPlan plan;
  plan.add({FaultSite::kResizeShrink, 0, 1, FaultAction::kThrow});
  FaultInjector injector(plan);
  const ElasticRunOutcome run = run_elastic_shard(wal, &injector);
  EXPECT_EQ(injector.fired(), 1u) << "the shrink crash site never fired";

  const auto count = [&run](JobId id) {
    return std::count(run.control_ids.begin(), run.control_ids.end(), id);
  };
  EXPECT_GE(count(kWalControlRetireBegin), 1);
  EXPECT_GE(count(kWalControlRetireDone), 1)
      << "the restarted worker abandoned the in-flight drain";

  ThresholdScheduler fresh(0.5, 2);
  fresh.reset();
  const RecoveryResult replayed =
      recover_commit_log(wal, 2, &fresh, /*truncate_file=*/false);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(fresh.active_machines(), run.final_active);
  std::filesystem::remove_all(dir);
}

// ---------- chaos: SIGKILL mid-resize ----------

TEST(ElasticChaos, SigkillMidResizeReplaysDeterministically) {
  // The node-failure model: the whole process dies by SIGKILL right after
  // logging a grow. No destructors, no flushes — the log on disk is all
  // that survives, and replaying it twice must land on the same machine
  // count both times.
  const std::string dir = test_dir("elastic_sigkill");
  const std::string wal = dir + "/shard-0.wal";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the deterministic elastic run with a kill armed at the
    // second grow. Exit codes signal "fault never fired" to the parent;
    // the expected path never returns from the crash point.
    FaultPlan plan;
    plan.add({FaultSite::kResizeGrow, 0, 2, FaultAction::kKill});
    FaultInjector injector(plan);
    MetricsRegistry metrics(1);
    ShardConfig config = elastic_shard_config(wal);
    config.faults = &injector;
    Shard shard(
        0, [] { return std::make_unique<ThresholdScheduler>(0.5, 2); },
        config, metrics);
    const std::vector<Job> jobs = elastic_two_phase_jobs();
    if (shard.try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                Shard::Clock::now())
            .taken != jobs.size()) {
      ::_exit(2);
    }
    shard.close();
    shard.start();
    while (!shard.worker_exited()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::_exit(3);  // drained without the kill firing
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with code "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying at the kill site";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Replay what the killed process left behind: recovery must succeed (a
  // torn tail is truncated, never fatal), reproduce the logged resize
  // sequence, and do so identically on a second pass.
  ThresholdScheduler first(0.5, 2);
  first.reset();
  const RecoveryResult pass1 = recover_commit_log(wal, 2, &first);
  ASSERT_TRUE(pass1.ok) << pass1.error;
  EXPECT_GT(pass1.records_replayed, 0u);
  EXPECT_GE(first.active_machines(), 3)
      << "the kill fired at the second grow: at least one durable grow";

  ThresholdScheduler second(0.5, 2);
  second.reset();
  const RecoveryResult pass2 =
      recover_commit_log(wal, 2, &second, /*truncate_file=*/false);
  ASSERT_TRUE(pass2.ok) << pass2.error;
  EXPECT_TRUE(pass2.clean()) << "first pass should have truncated any tear";
  EXPECT_EQ(pass2.records_replayed, pass1.records_replayed);
  EXPECT_EQ(second.active_machines(), first.active_machines());

  std::filesystem::remove_all(dir);
}

// ---------- gateway: elastic + criticality end to end ----------

TEST(ElasticGateway, ResizingUnderChaosNeverBreaksACommitment) {
  // The tentpole's acceptance property at the gateway level: an elastic,
  // class-shedding, WAL-backed gateway under a random supervised crash
  // still commits a legal schedule, and a read-only replay of the log
  // (control records included) reproduces it placement for placement.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    WorkloadConfig wconfig = scenario("mixed-criticality", kEps, 3000 + seed);
    wconfig.n = 800;
    const Instance instance = generate_workload(wconfig);

    FaultInjector injector(FaultPlan::random_crash(seed, 1, 60));
    GatewayConfig config;
    config.shards = 1;
    config.queue_capacity = 1024;
    config.batch_size = 16;
    config.wal_dir = test_dir("elastic_gateway_" + std::to_string(seed));
    config.wal_fsync = FsyncPolicy::kEveryCommit;
    config.supervisor.poll_interval = std::chrono::milliseconds(2);
    config.supervisor.backoff.initial = std::chrono::milliseconds(2);
    config.supervisor.backoff.max = std::chrono::milliseconds(10);
    config.pop_timeout = std::chrono::milliseconds(5);
    config.fault_injector = &injector;
    config.shed_policy = ShedPolicyConfig{};
    CapacityControllerConfig elastic;
    elastic.min_machines = 2;
    elastic.max_machines = 6;
    elastic.window = 4;
    elastic.cooldown_windows = 1;
    config.elastic = elastic;
    AdmissionGateway gateway(config, [](int) {
      return std::make_unique<ThresholdScheduler>(kEps, 3);
    });

    for (const Job& job : instance.jobs()) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      for (;;) {
        const Outcome status = gateway.submit(job);
        // A class shed is a final decision, not a retryable refusal.
        if (status == Outcome::kEnqueued ||
            status == Outcome::kRejectedCriticality) {
          break;
        }
        ASSERT_NE(status, Outcome::kRejectedClosed);
        ASSERT_LT(std::chrono::steady_clock::now(), give_up);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const GatewayResult result = gateway.finish();
    EXPECT_TRUE(result.clean()) << result.first_violation();
    const ValidationReport report =
        validate_schedule(instance, result.shards[0].schedule);
    EXPECT_TRUE(report.ok) << report.to_string();

    // Scheduler-less read-only replay: control records grow the schedule,
    // every commitment re-validates, placements match the live run.
    const RecoveryResult replayed =
        recover_commit_log(config.wal_dir + "/shard-0.wal", 3, nullptr,
                           /*truncate_file=*/false);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    const std::vector<Placement> from_log = replayed.schedule.all_placements();
    const std::vector<Placement> from_run =
        result.shards[0].schedule.all_placements();
    ASSERT_EQ(from_log.size(), from_run.size());
    for (std::size_t i = 0; i < from_log.size(); ++i) {
      EXPECT_EQ(from_log[i].job, from_run[i].job) << "placement " << i;
      EXPECT_EQ(from_log[i].machine, from_run[i].machine) << "placement " << i;
      EXPECT_DOUBLE_EQ(from_log[i].start, from_run[i].start)
          << "placement " << i;
    }
    std::filesystem::remove_all(config.wal_dir);
  }
}

}  // namespace
}  // namespace slacksched
