// Edge-case coverage across modules that the focused suites do not hit:
// Gantt/chart renderers on degenerate inputs, the engine's behaviour
// when a scheduler cheats mid-run, determinism of the exact solver under
// ties, m = 1 adversary specifics, and the diurnal named scenario.
#include <gtest/gtest.h>

#include <sstream>

#include "adversary/lower_bound_game.hpp"
#include "baselines/greedy.hpp"
#include "common/ascii_chart.hpp"
#include "common/expects.hpp"
#include "core/threshold.hpp"
#include "offline/exact.hpp"
#include "sched/engine.hpp"
#include "sched/gantt.hpp"
#include "sched/timeline.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

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

// ---------- renderers on degenerate inputs ----------

TEST(GanttText, EmptyScheduleRendersIdleRows) {
  std::ostringstream out;
  render_gantt(std::cout ? out : out, Schedule(2), {});
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("m0"), std::string::npos);
  EXPECT_NE(rendered.find("m1"), std::string::npos);
  EXPECT_EQ(rendered.find('['), std::string::npos);  // no placements
}

TEST(GanttText, JobIdDigitsAppear) {
  Schedule s(1);
  s.commit(make_job(17, 0.0, 5.0, 100.0), 0, 0.0);
  std::ostringstream out;
  render_gantt(out, s, {});
  // The run is drawn with the id's last digit (7).
  EXPECT_NE(out.str().find('7'), std::string::npos);
}

TEST(GanttText, RejectsAbsurdWidth) {
  std::ostringstream out;
  GanttOptions options;
  options.width = 3;
  EXPECT_THROW(render_gantt(out, Schedule(1), options), PreconditionError);
}

TEST(AsciiChart, SinglePointSeries) {
  ChartSeries s{"pt", {1.0}, {2.0}, 'x'};
  std::ostringstream out;
  render_chart(out, {s}, {});  // degenerate bounding box must not divide by 0
  EXPECT_NE(out.str().find('x'), std::string::npos);
}

TEST(AsciiChart, FlatSeries) {
  ChartSeries s{"flat", {1.0, 2.0, 3.0}, {5.0, 5.0, 5.0}, 'f'};
  std::ostringstream out;
  render_chart(out, {s}, {});
  EXPECT_NE(out.str().find('f'), std::string::npos);
}

TEST(AsciiChart, EmptySeriesListRenders) {
  std::ostringstream out;
  render_chart(out, {}, {});
  EXPECT_NE(out.str().find("legend"), std::string::npos);
}

// ---------- engine under a cheating scheduler ----------

class MidRunCheater final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    ++seen_;
    if (seen_ < 3) return Decision::accept(0, job.release);
    return Decision::accept(0, job.release - 100.0);  // time travel
  }
  int machines() const override { return 1; }
  void reset() override { seen_ = 0; }
  std::string name() const override { return "MidRunCheater"; }

 private:
  int seen_ = 0;
};

TEST(EngineEdge, ViolationStopsCleanlyAndKeepsTheCommittedWork) {
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(make_job(i + 1, 10.0 * i, 1.0, 10.0 * i + 5.0));
  }
  const Instance inst(std::move(jobs));
  MidRunCheater cheater;
  const RunResult result = run_online(cheater, inst);
  EXPECT_FALSE(result.clean());
  EXPECT_EQ(result.metrics.accepted, 2u);
  // The schedule holds exactly the two legal commitments; the illegal
  // third never reached it.
  EXPECT_EQ(result.schedule.job_count(), 2u);
  EXPECT_NEAR(utilization(result.schedule, result.metrics.makespan) *
                  result.metrics.makespan,
              2.0, 1e-9);
  // The dashboard statistics refuse a poisoned run.
  EXPECT_THROW((void)backlog(result), PreconditionError);
  EXPECT_THROW((void)acceptance_rates(result, 5.0), PreconditionError);
}

// ---------- exact solver determinism under ties ----------

TEST(ExactEdge, IdenticalJobsTieBreakDeterministically) {
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(make_job(i + 1, 0.0, 2.0, 4.0));
  }
  const Instance inst(std::move(jobs));
  const ExactResult a = exact_optimal_load(inst, 2);
  const ExactResult b = exact_optimal_load(inst, 2);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.accepted, b.accepted);
  // Window 4 fits two back-to-back jobs per machine.
  EXPECT_DOUBLE_EQ(a.value, 8.0);
}

TEST(ExactEdge, FeasibilityCountsAreReported) {
  // The greedy seed is suboptimal here (it grabs the small job), so the
  // branch-and-bound must actually search and run feasibility checks.
  const Instance inst(
      {make_job(1, 0.0, 1.0, 1.5), make_job(2, 0.0, 10.0, 10.5)});
  const ExactResult result = exact_optimal_load(inst, 1);
  EXPECT_DOUBLE_EQ(result.value, 10.0);
  EXPECT_GT(result.feasibility_checks, 0u);
}

TEST(ExactEdge, OptimalSeedSkipsTheSearch) {
  // When greedy already achieves the optimum, the volume bound prunes the
  // whole tree without a single feasibility check — the cheap path.
  const Instance inst({make_job(1, 0.0, 1.0, 2.0), make_job(2, 0.0, 1.0, 2.0)});
  const ExactResult result = exact_optimal_load(inst, 1);
  EXPECT_DOUBLE_EQ(result.value, 2.0);
  EXPECT_EQ(result.feasibility_checks, 0u);
}

// ---------- m = 1 adversary specifics ----------

TEST(AdversaryM1, PhaseTwoSubmitsTwoJobsAndCertificatePacksBoth) {
  AdversaryConfig config;
  config.eps = 0.4;
  config.m = 1;
  config.beta = 1e-4;
  const LowerBoundGame game(config);
  ThresholdScheduler alg(0.4, 1);
  const GameResult result = game.play(alg);

  // m = 1, k = 1: Threshold rejects both phase-2 jobs (2m = 2 of them) and
  // the single phase-3 job; the game stops in phase 3 subphase 1.
  std::size_t phase2_jobs = 0;
  for (const GameEvent& event : result.trace) {
    if (event.phase == 2) ++phase2_jobs;
  }
  EXPECT_EQ(phase2_jobs, 2u);
  EXPECT_EQ(result.stop, GameStop::kPhase3);
  EXPECT_EQ(result.stop_subphase, 1);
  EXPECT_NEAR(result.ratio, 2.0 + 1.0 / 0.4, 0.05);
  EXPECT_TRUE(validate_schedule(result.instance, result.optimal_schedule).ok);
}

// ---------- named scenarios ----------

TEST(Scenarios, DiurnalScenarioValidates) {
  for (double eps : {0.05, 0.8}) {
    const WorkloadConfig config = scenario("diurnal", eps, 3);
    const Instance inst = generate_workload(config);
    EXPECT_TRUE(inst.validate(eps).ok);
    EXPECT_EQ(inst.size(), config.n);
  }
}

TEST(Scenarios, DiurnalScenarioRunsThroughEveryPolicy) {
  const Instance inst = generate_workload(scenario("diurnal", 0.1, 8));
  ThresholdScheduler threshold(0.1, 4);
  GreedyScheduler greedy(4);
  const RunResult rt = run_online(threshold, inst);
  const RunResult rg = run_online(greedy, inst);
  EXPECT_TRUE(rt.clean());
  EXPECT_TRUE(rg.clean());
  EXPECT_TRUE(validate_schedule(inst, rt.schedule).ok);
  EXPECT_TRUE(validate_schedule(inst, rg.schedule).ok);
}

// ---------- tolerance boundaries ----------

TEST(ToleranceEdge, TouchingCommitmentsAtExactEpsilonGap) {
  // Placements separated by exactly kTimeEps must not be flagged as
  // overlapping anywhere in the pipeline.
  Schedule s(1);
  s.commit(make_job(1, 0.0, 1.0, 10.0), 0, 0.0);
  EXPECT_NO_THROW(s.commit(make_job(2, 0.0, 1.0, 10.0), 0, 1.0 + kTimeEps));
  EXPECT_EQ(s.job_count(), 2u);
}

TEST(ToleranceEdge, DeadlineExactlyAtCompletionIsOnTime) {
  const Instance inst({make_job(1, 0.0, 2.0, 2.0)});
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  EXPECT_EQ(result.metrics.accepted, 1u);
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
}

}  // namespace
}  // namespace slacksched
