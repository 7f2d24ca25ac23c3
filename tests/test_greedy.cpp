#include "baselines/greedy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

#include "greedy_reference.hpp"

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

TEST(Greedy, AcceptsEveryFeasibleJob) {
  GreedyScheduler alg(1);
  EXPECT_TRUE(alg.on_arrival(make_job(1, 0.0, 2.0, 2.0)).accepted);
  // Infeasible: outstanding load 2, deadline too tight.
  EXPECT_FALSE(alg.on_arrival(make_job(2, 0.0, 1.0, 2.5)).accepted);
  // Feasible after the load: accepted (greedy has no threshold).
  EXPECT_TRUE(alg.on_arrival(make_job(3, 0.0, 1.0, 3.0)).accepted);
}

TEST(Greedy, BestFitStacksOnMostLoaded) {
  GreedyScheduler alg(2, GreedyPolicy::kBestFit);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 100.0)).accepted);
  const Decision d = alg.on_arrival(make_job(2, 0.0, 1.0, 100.0));
  ASSERT_TRUE(d.accepted);
  EXPECT_EQ(d.machine, 0);
  EXPECT_DOUBLE_EQ(d.start, 4.0);
}

TEST(Greedy, LeastLoadedBalances) {
  GreedyScheduler alg(2, GreedyPolicy::kLeastLoaded);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 100.0)).accepted);
  const Decision d = alg.on_arrival(make_job(2, 0.0, 1.0, 100.0));
  ASSERT_TRUE(d.accepted);
  EXPECT_EQ(d.machine, 1);
  EXPECT_DOUBLE_EQ(d.start, 0.0);
}

TEST(Greedy, FirstFitPicksLowestIndex) {
  GreedyScheduler alg(3, GreedyPolicy::kFirstFit);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 1.0, 100.0)).accepted);
  const Decision d = alg.on_arrival(make_job(2, 0.0, 1.0, 100.0));
  ASSERT_TRUE(d.accepted);
  EXPECT_EQ(d.machine, 0);  // still feasible on machine 0 (after load 1)
  EXPECT_DOUBLE_EQ(d.start, 1.0);
}

TEST(Greedy, FirstFitSkipsInfeasibleMachines) {
  GreedyScheduler alg(2, GreedyPolicy::kFirstFit);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 100.0)).accepted);
  const Decision d = alg.on_arrival(make_job(2, 0.0, 1.0, 2.0));
  ASSERT_TRUE(d.accepted);
  EXPECT_EQ(d.machine, 1);
}

TEST(Greedy, RejectsOnlyWhenNoMachineFits) {
  GreedyScheduler alg(2);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 100.0)).accepted);
  ASSERT_TRUE(alg.on_arrival(make_job(2, 0.0, 4.0, 4.0)).accepted);
  EXPECT_FALSE(alg.on_arrival(make_job(3, 0.0, 1.0, 3.0)).accepted);
}

TEST(Greedy, ResetClearsLoads) {
  GreedyScheduler alg(1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 4.0)).accepted);
  EXPECT_FALSE(alg.on_arrival(make_job(2, 0.0, 4.0, 4.0)).accepted);
  alg.reset();
  EXPECT_TRUE(alg.on_arrival(make_job(3, 0.0, 4.0, 4.0)).accepted);
}

TEST(Greedy, NameMentionsPolicy) {
  EXPECT_NE(GreedyScheduler(2, GreedyPolicy::kBestFit).name().find("best-fit"),
            std::string::npos);
  EXPECT_NE(
      GreedyScheduler(2, GreedyPolicy::kFirstFit).name().find("first-fit"),
      std::string::npos);
  EXPECT_NE(GreedyScheduler(2, GreedyPolicy::kLeastLoaded)
                .name()
                .find("least-loaded"),
            std::string::npos);
}

TEST(Greedy, RejectsInvalidConstruction) {
  EXPECT_THROW(GreedyScheduler(0), PreconditionError);
}

/// Property sweep: greedy commitments are always legal under all policies.
class GreedySweep
    : public ::testing::TestWithParam<std::tuple<GreedyPolicy, int>> {};

TEST_P(GreedySweep, SchedulesValidateOnRandomWorkloads) {
  const auto [policy, m] = GetParam();
  WorkloadConfig config;
  config.n = 400;
  config.eps = 0.1;
  config.arrival_rate = 3.0;
  config.seed = 314;
  const Instance inst = generate_workload(config);

  GreedyScheduler alg(m, policy);
  const RunResult result = run_online(alg, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedySweep,
    ::testing::Combine(::testing::Values(GreedyPolicy::kBestFit,
                                         GreedyPolicy::kFirstFit,
                                         GreedyPolicy::kLeastLoaded),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Randomized equivalence with the seed implementation: the FrontierSet-based
// GreedyScheduler must reproduce ReferenceGreedyScheduler's decision stream
// bit-for-bit under every policy.
// ---------------------------------------------------------------------------

/// Tie-heavy stream: batches of identical jobs at one release (maximal
/// frontier ties), drain gaps (zero-load min-index path), and tight singles
/// (reject path). Deadlines always leave at least `eps` slack.
Instance greedy_tie_stream(double eps, int machines, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs;
  TimePoint now = 0.0;
  JobId next_id = 1;
  for (int round = 0; round < 80; ++round) {
    const int batch = machines + static_cast<int>(rng.uniform_int(1, 3));
    const Duration proc = rng.uniform(0.0, 1.0) < 0.5 ? 1.0
                                                      : rng.uniform(0.5, 2.0);
    const double slack = eps + rng.uniform(0.0, 2.0);
    for (int i = 0; i < batch; ++i) {
      jobs.push_back(make_job(next_id++, now, proc, now + (1.0 + slack) * proc));
    }
    jobs.push_back(
        make_job(next_id++, now, 4.0 * proc, now + (1.0 + eps) * 4.0 * proc));
    now += (round % 3 == 1) ? proc * batch + 8.0 : rng.uniform(0.1, 1.2);
  }
  return Instance(std::move(jobs));
}

class GreedyEquivalence
    : public ::testing::TestWithParam<std::tuple<GreedyPolicy, int, double>> {};

TEST_P(GreedyEquivalence, MatchesSeedDecisionForDecision) {
  const auto [policy, m, eps] = GetParam();
  const Instance inst =
      greedy_tie_stream(eps, m, 0x6Eu + static_cast<std::uint64_t>(m));

  GreedyScheduler fast(m, policy);
  ReferenceGreedyScheduler slow(m, policy);
  fast.reset();
  slow.reset();
  for (const Job& job : inst.jobs()) {
    const Decision expected = slow.on_arrival(job);
    const Decision actual = fast.on_arrival(job);
    ASSERT_EQ(actual, expected)
        << "policy " << to_string(policy) << " diverged at job " << job.id
        << " (release " << job.release << ", proc " << job.proc << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyEquivalence,
    ::testing::Combine(::testing::Values(GreedyPolicy::kBestFit,
                                         GreedyPolicy::kFirstFit,
                                         GreedyPolicy::kLeastLoaded),
                       ::testing::Values(1, 2, 7, 8, 16, 64),
                       ::testing::Values(0.1, 0.5, 1.0)));

TEST(GreedyEquivalence, RunOnlineStreamsAreIdenticalOnGeneratedWorkloads) {
  for (const auto policy : {GreedyPolicy::kBestFit, GreedyPolicy::kFirstFit,
                            GreedyPolicy::kLeastLoaded}) {
    WorkloadConfig config;
    config.n = 1500;
    config.eps = 0.2;
    config.arrival = ArrivalModel::kBursty;
    config.size = SizeModel::kConstant;  // exact ties everywhere
    config.slack = SlackModel::kTight;
    config.arrival_rate = 5.0;
    config.seed = 909;
    const Instance inst = generate_workload(config);

    GreedyScheduler fast(6, policy);
    ReferenceGreedyScheduler slow(6, policy);
    const RunResult a = run_online(fast, inst);
    const RunResult b = run_online(slow, inst);
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
      ASSERT_EQ(a.decisions[i].decision, b.decisions[i].decision)
          << to_string(policy) << " job " << i;
    }
  }
}

}  // namespace
}  // namespace slacksched
