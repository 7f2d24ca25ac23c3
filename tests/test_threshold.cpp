// Tests of Algorithm 1 (ThresholdScheduler): the admission rule (9)/(10),
// the best-fit allocation, Claim 1 (every accepted job completes on time)
// as a property over workload sweeps, determinism, and decision-for-decision
// equivalence of the FrontierSet hot path with the seed implementation.
#include "core/threshold.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

#include "threshold_reference.hpp"

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

TEST(Threshold, AcceptsFirstJobOnEmptySystem) {
  ThresholdScheduler alg(0.5, 2);
  const Decision d = alg.on_arrival(make_job(1, 0.0, 1.0, 1.6));
  EXPECT_TRUE(d.accepted);
  EXPECT_DOUBLE_EQ(d.start, 0.0);
}

TEST(Threshold, ThresholdIsNowOnEmptySystem) {
  ThresholdScheduler alg(0.3, 3);
  EXPECT_DOUBLE_EQ(alg.deadline_threshold(0.0), 0.0);
  EXPECT_DOUBLE_EQ(alg.deadline_threshold(5.5), 5.5);
}

TEST(Threshold, SingleMachineThresholdIsLoadTimesF1) {
  // m = 1, k = 1, f_1 = (1+eps)/eps. After a job of length p the threshold
  // at its release time is p * f_1.
  const double eps = 0.5;
  ThresholdScheduler alg(eps, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 2.0, 100.0)).accepted);
  const double f1 = (1.0 + eps) / eps;
  EXPECT_NEAR(alg.deadline_threshold(0.0), 2.0 * f1, 1e-12);
  // Load drains as time passes.
  EXPECT_NEAR(alg.deadline_threshold(1.0), 1.0 + 1.0 * f1, 1e-12);
  EXPECT_NEAR(alg.deadline_threshold(2.0), 2.0, 1e-12);
}

TEST(Threshold, RejectsBelowThresholdAcceptsAtThreshold) {
  const double eps = 0.5;
  ThresholdScheduler alg(eps, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 2.0, 100.0)).accepted);
  const double d_lim = alg.deadline_threshold(0.0);  // 6.0
  // A job with deadline just below the threshold is rejected...
  EXPECT_FALSE(
      alg.on_arrival(make_job(2, 0.0, 1.0, d_lim - 0.01)).accepted);
  // ...and one at the threshold is accepted.
  EXPECT_TRUE(alg.on_arrival(make_job(3, 0.0, 1.0, d_lim)).accepted);
  // The comparison tolerates rounding: half a kTimeEps below the
  // threshold still counts as at it (same state, fresh scheduler).
  ThresholdScheduler tolerant(eps, 1);
  ASSERT_TRUE(tolerant.on_arrival(make_job(1, 0.0, 2.0, 100.0)).accepted);
  ASSERT_EQ(tolerant.deadline_threshold(0.0), d_lim);
  EXPECT_TRUE(
      tolerant.on_arrival(make_job(4, 0.0, 1.0, d_lim - kTimeEps / 2))
          .accepted);
}

TEST(Threshold, MultiMachineThresholdUsesLeastLoaded) {
  // m = 2, eps = 0.5 -> k = 2: only the least loaded machine (position 2)
  // determines the threshold, so with one busy machine the threshold stays
  // at `now`.
  ThresholdScheduler alg(0.5, 2);
  ASSERT_EQ(alg.solution().k, 2);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 100.0)).accepted);
  EXPECT_DOUBLE_EQ(alg.deadline_threshold(0.0), 0.0);
  // A job too tight for the loaded machine lands on the idle one; with
  // both machines busy the position-2 load raises the threshold.
  ASSERT_TRUE(alg.on_arrival(make_job(2, 0.0, 1.0, 4.5)).accepted);
  EXPECT_NEAR(alg.deadline_threshold(0.0), 1.0 * alg.solution().f_at(2),
              1e-12);
}

TEST(Threshold, SmallEpsUsesAllMachines) {
  // m = 2, eps = 0.05 -> k = 1: the most loaded machine also raises the
  // threshold.
  ThresholdScheduler alg(0.05, 2);
  ASSERT_EQ(alg.solution().k, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 1000.0)).accepted);
  EXPECT_NEAR(alg.deadline_threshold(0.0), 4.0 * alg.solution().f_at(1),
              1e-9);
}

TEST(Threshold, BestFitPicksMostLoadedFeasibleMachine) {
  ThresholdScheduler alg(0.5, 2);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 4.0, 100.0)).accepted);
  // Best fit stacks loose jobs onto the already loaded machine, keeping
  // the other machines free for tight jobs (the paper's allocation goal).
  const Decision d2 = alg.on_arrival(make_job(2, 0.0, 1.0, 100.0));
  ASSERT_TRUE(d2.accepted);
  EXPECT_EQ(d2.machine, 0);
  EXPECT_DOUBLE_EQ(d2.start, 4.0);
  // A tighter job that cannot wait for load 5 goes to the idle machine 1.
  const Decision d3 = alg.on_arrival(make_job(3, 0.0, 2.0, 4.5));
  ASSERT_TRUE(d3.accepted);
  EXPECT_EQ(d3.machine, 1);
  EXPECT_DOUBLE_EQ(d3.start, 0.0);
  // And the next loose job again prefers the most loaded candidate.
  const Decision d4 = alg.on_arrival(make_job(4, 0.0, 1.0, 100.0));
  ASSERT_TRUE(d4.accepted);
  EXPECT_EQ(d4.machine, 0);
  EXPECT_DOUBLE_EQ(d4.start, 5.0);
}

TEST(Threshold, StartsAfterOutstandingLoad) {
  ThresholdScheduler alg(1.0, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 2.0, 100.0)).accepted);
  const Decision d = alg.on_arrival(make_job(2, 1.0, 1.0, 100.0));
  ASSERT_TRUE(d.accepted);
  EXPECT_DOUBLE_EQ(d.start, 2.0);  // after the first job completes
}

TEST(Threshold, IdleMachineStartsImmediately) {
  ThresholdScheduler alg(1.0, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 1.0, 100.0)).accepted);
  // Arrives long after the first job drained.
  const Decision d = alg.on_arrival(make_job(2, 10.0, 1.0, 100.0));
  ASSERT_TRUE(d.accepted);
  EXPECT_DOUBLE_EQ(d.start, 10.0);
}

TEST(Threshold, ResetClearsState) {
  ThresholdScheduler alg(0.5, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 2.0, 100.0)).accepted);
  alg.reset();
  EXPECT_DOUBLE_EQ(alg.deadline_threshold(0.0), 0.0);
  EXPECT_TRUE(alg.on_arrival(make_job(2, 0.0, 1.0, 1.5)).accepted);
}

TEST(Threshold, KOverrideChangesPhase) {
  ThresholdConfig config;
  config.eps = 0.5;
  config.machines = 3;
  config.k_override = 1;
  ThresholdScheduler alg(config);
  EXPECT_EQ(alg.solution().k, 1);
  EXPECT_NE(alg.name().find("k=1"), std::string::npos);
}

TEST(Threshold, NameMentionsParameters) {
  ThresholdScheduler alg(0.25, 4);
  EXPECT_NE(alg.name().find("Threshold"), std::string::npos);
  EXPECT_NE(alg.name().find("m=4"), std::string::npos);
}

TEST(Threshold, RejectsInvalidConstruction) {
  EXPECT_THROW(ThresholdScheduler(0.0, 2), PreconditionError);
  EXPECT_THROW(ThresholdScheduler(1.5, 2), PreconditionError);
  EXPECT_THROW(ThresholdScheduler(0.5, 0), PreconditionError);
}

TEST(Threshold, SlackContractViolationIsLoudNotSilent) {
  // Algorithm 1's correctness argument needs every job to satisfy the
  // slack condition for the configured eps. A tighter job either gets
  // rejected by the threshold, or — if the threshold would admit it but
  // no machine can host it — trips the allocation postcondition rather
  // than producing an illegal commitment.
  ThresholdScheduler alg(0.5, 1);
  ASSERT_TRUE(alg.on_arrival(make_job(1, 0.0, 1.0, 100.0)).accepted);
  // Slack 0.1 < 0.5: deadline 2.2, threshold is 1 * f_1 = 3 -> rejected.
  EXPECT_FALSE(alg.on_arrival(make_job(2, 0.0, 2.0, 2.2)).accepted);

  // A long zero-ish-slack job above the threshold but infeasible on the
  // loaded machine: f_1 = 3 with load 2 gives d_lim = 6; deadline 6.05
  // admits, but load 2 + proc 6 = 8 > 6.05 misses. The contract violation
  // surfaces as a PostconditionError.
  ThresholdScheduler tight(0.5, 1);
  ASSERT_TRUE(tight.on_arrival(make_job(3, 0.0, 2.0, 100.0)).accepted);
  EXPECT_THROW((void)tight.on_arrival(make_job(4, 0.0, 6.0, 6.05)),
               PostconditionError);
}

TEST(Threshold, LooserJobsThanEpsAreFine) {
  // The converse direction is explicitly supported: jobs may have MORE
  // slack than the configured eps.
  ThresholdScheduler alg(0.1, 2);
  for (int i = 0; i < 20; ++i) {
    const Decision d =
        alg.on_arrival(make_job(i + 1, 0.0, 1.0, 1000.0));  // huge slack
    EXPECT_TRUE(d.accepted);
  }
}

TEST(Threshold, GoldwasserKerbikovFactoryIsSingleMachine) {
  ThresholdScheduler gk = make_goldwasser_kerbikov(0.2);
  EXPECT_EQ(gk.machines(), 1);
  EXPECT_NEAR(gk.solution().c, 2.0 + 1.0 / 0.2, 1e-9);
}

TEST(Threshold, DeterministicAcrossRuns) {
  const Instance inst = generate_workload([] {
    WorkloadConfig c;
    c.n = 300;
    c.eps = 0.2;
    c.seed = 99;
    return c;
  }());
  ThresholdScheduler alg(0.2, 3);
  const RunResult a = run_online(alg, inst);
  const RunResult b = run_online(alg, inst);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].decision, b.decisions[i].decision);
  }
}

/// Claim 1 as a property: over arrival/size/slack sweeps, every accepted
/// job is committed to a legal slot and the whole schedule validates.
class ThresholdClaim1Sweep
    : public ::testing::TestWithParam<
          std::tuple<double, int, ArrivalModel, SizeModel, SlackModel>> {};

TEST_P(ThresholdClaim1Sweep, AcceptedJobsAlwaysCompleteOnTime) {
  const auto [eps, m, arrival, size, slack] = GetParam();
  WorkloadConfig config;
  config.n = 400;
  config.eps = eps;
  config.arrival = arrival;
  config.size = size;
  config.slack = slack;
  config.arrival_rate = 2.0;
  config.seed = 12345;
  const Instance inst = generate_workload(config);

  ThresholdScheduler alg(eps, m);
  const RunResult result = run_online(alg, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  const auto report = validate_schedule(inst, result.schedule);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_GT(result.metrics.accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdClaim1Sweep,
    ::testing::Combine(
        ::testing::Values(0.05, 0.3, 1.0), ::testing::Values(1, 2, 4),
        ::testing::Values(ArrivalModel::kPoisson, ArrivalModel::kBursty),
        ::testing::Values(SizeModel::kBoundedPareto, SizeModel::kBimodal),
        ::testing::Values(SlackModel::kTight, SlackModel::kMixed)));

/// Seeds sweep: the acceptance threshold never admits an infeasible job
/// even under adversarially tight slack.
class ThresholdSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThresholdSeedSweep, TightSlackStressStaysLegal) {
  WorkloadConfig config = scenario("overload", 0.02, GetParam());
  config.n = 600;
  const Instance inst = generate_workload(config);
  ThresholdScheduler alg(0.02, 2);
  const RunResult result = run_online(alg, inst);
  EXPECT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdSeedSweep,
                         ::testing::Values(1, 7, 21, 1001, 424242));

// ---------------------------------------------------------------------------
// Randomized equivalence with the seed implementation.
//
// ThresholdScheduler's FrontierSet hot path must be byte-identical — same
// accept/reject bit, same machine, same start time, bit-for-bit — to
// ReferenceThresholdScheduler (the retained seed code) on every stream.
// ---------------------------------------------------------------------------

enum class StreamKind { kAdversarial, kBurst, kPoisson };

/// Hand-built worst case for incremental order maintenance: batches of
/// *identical* jobs released at the same instant (maximal frontier ties),
/// interleaved with idle gaps long enough to drain every machine (zero-load
/// min-index path) and occasional tight-deadline singles (reject path).
/// Every job satisfies the slack condition for `eps`.
Instance adversarial_tie_stream(double eps, int machines, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs;
  TimePoint now = 0.0;
  JobId next_id = 1;
  for (int round = 0; round < 60; ++round) {
    // A batch of clones, more than machines so several stack per machine.
    const int batch = machines + static_cast<int>(rng.uniform_int(1, 4));
    const Duration proc = rng.uniform(0.0, 1.0) < 0.5 ? 1.0  // exact ties
                                                      : rng.uniform(0.5, 2.0);
    const double slack = eps + rng.uniform(0.0, 2.0);
    for (int i = 0; i < batch; ++i) {
      jobs.push_back(make_job(next_id++, now, proc, now + (1.0 + slack) * proc));
    }
    // A tight single at the same release to exercise the reject branch.
    jobs.push_back(
        make_job(next_id++, now, 3.0 * proc, now + (1.0 + eps) * 3.0 * proc));
    switch (round % 3) {
      case 0: now += rng.uniform(0.1, 1.0); break;         // dense arrivals
      case 1: now += proc * batch + 10.0; break;           // full drain: idle
      default: now += proc * 0.5; break;                   // partial drain
    }
  }
  return Instance(std::move(jobs));
}

Instance equivalence_stream(StreamKind kind, double eps, int machines,
                            std::uint64_t seed) {
  if (kind == StreamKind::kAdversarial) {
    return adversarial_tie_stream(eps, machines, seed);
  }
  WorkloadConfig config;
  config.n = 800;
  config.eps = eps;
  config.seed = seed;
  config.arrival_rate = std::max(1.0, 1.5 * machines);
  if (kind == StreamKind::kBurst) {
    config.arrival = ArrivalModel::kBursty;
    config.size = SizeModel::kConstant;  // exact frontier ties
    config.slack = SlackModel::kTight;
  } else {
    config.arrival = ArrivalModel::kPoisson;
    config.size = SizeModel::kBoundedPareto;
    config.slack = SlackModel::kMixed;
  }
  return generate_workload(config);
}

class ThresholdEquivalence
    : public ::testing::TestWithParam<std::tuple<double, int, StreamKind>> {};

TEST_P(ThresholdEquivalence, MatchesSeedDecisionForDecision) {
  const auto [eps, m, kind] = GetParam();
  const Instance inst =
      equivalence_stream(kind, eps, m, 0xE9u + static_cast<std::uint64_t>(m));

  ThresholdScheduler fast(eps, m);
  ReferenceThresholdScheduler slow(eps, m);
  fast.reset();
  slow.reset();
  for (const Job& job : inst.jobs()) {
    // The admission threshold itself must agree bit-for-bit...
    ASSERT_EQ(fast.deadline_threshold(job.release),
              slow.deadline_threshold(job.release))
        << "threshold diverged at job " << job.id;
    // ...and so must the full decision (accept bit, machine, start).
    const Decision expected = slow.on_arrival(job);
    const Decision actual = fast.on_arrival(job);
    ASSERT_EQ(actual, expected)
        << "decision diverged at job " << job.id << " (release " << job.release
        << ", proc " << job.proc << ", deadline " << job.deadline << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdEquivalence,
    ::testing::Combine(::testing::Values(0.1, 0.5, 1.0),
                       ::testing::Values(1, 2, 7, 8, 16, 64),
                       ::testing::Values(StreamKind::kAdversarial,
                                         StreamKind::kBurst,
                                         StreamKind::kPoisson)));

TEST(ThresholdEquivalence, RunOnlineStreamsAreIdentical) {
  // End-to-end through the engine: identical decision records and identical
  // committed schedules on a large mixed workload.
  const Instance inst = generate_workload([] {
    WorkloadConfig c;
    c.n = 2000;
    c.eps = 0.2;
    c.arrival = ArrivalModel::kBursty;
    c.size = SizeModel::kBimodal;
    c.arrival_rate = 6.0;
    c.seed = 4242;
    return c;
  }());
  ThresholdScheduler fast(0.2, 8);
  ReferenceThresholdScheduler slow(0.2, 8);
  const RunResult a = run_online(fast, inst);
  const RunResult b = run_online(slow, inst);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    ASSERT_EQ(a.decisions[i].decision, b.decisions[i].decision) << "job " << i;
  }
  EXPECT_EQ(a.metrics.accepted, b.metrics.accepted);
  EXPECT_DOUBLE_EQ(a.schedule.total_volume(), b.schedule.total_volume());
  EXPECT_DOUBLE_EQ(a.schedule.makespan(), b.schedule.makespan());
}

}  // namespace
}  // namespace slacksched
