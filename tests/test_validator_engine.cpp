// Tests for the schedule validator and the commitment-enforcing engine.
#include <gtest/gtest.h>

#include "baselines/greedy.hpp"
#include "job/instance.hpp"
#include "sched/engine.hpp"
#include "sched/gantt.hpp"
#include "sched/validator.hpp"

#include <sstream>

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

Instance small_instance() {
  return Instance({make_job(1, 0.0, 2.0, 10.0), make_job(2, 1.0, 3.0, 12.0),
                   make_job(3, 2.0, 1.0, 4.0)});
}

// ---------- validator ----------

TEST(Validator, AcceptsLegalSchedule) {
  const Instance inst = small_instance();
  Schedule s(2);
  s.commit(inst[0], 0, 0.0);
  s.commit(inst[1], 1, 1.0);
  s.commit(inst[2], 0, 2.5);
  const auto report = validate_schedule(inst, s);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.to_string(), "valid");
}

TEST(Validator, FlagsUnknownJob) {
  const Instance inst = small_instance();
  Schedule s(1);
  s.commit(make_job(99, 0.0, 1.0, 5.0), 0, 0.0);
  EXPECT_FALSE(validate_schedule(inst, s).ok);
}

TEST(Validator, FlagsTamperedJob) {
  const Instance inst = small_instance();
  Schedule s(1);
  Job tampered = inst[0];
  tampered.proc = 0.5;  // report a smaller job than submitted
  s.commit(tampered, 0, 0.0);
  EXPECT_FALSE(validate_schedule(inst, s).ok);
}

TEST(Validator, FlagsDoublePlacement) {
  const Instance inst = small_instance();
  Schedule s(2);
  s.commit(inst[0], 0, 0.0);
  s.commit(inst[0], 1, 0.0);
  EXPECT_FALSE(validate_schedule(inst, s).ok);
}

TEST(Validator, FlagsEarlyStart) {
  const Instance inst = small_instance();
  Schedule s(1);
  s.commit(inst[1], 0, 0.0);  // released at 1.0
  const auto report = validate_schedule(inst, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("before its release"), std::string::npos);
}

TEST(Validator, FlagsDeadlineMiss) {
  const Instance inst = small_instance();
  Schedule s(1);
  s.commit(inst[2], 0, 3.5);  // deadline 4.0, proc 1.0
  EXPECT_FALSE(validate_schedule(inst, s).ok);
}

TEST(Validator, EmptyScheduleIsValid) {
  EXPECT_TRUE(validate_schedule(small_instance(), Schedule(3)).ok);
}

// ---------- validate_commitment (the shared legality path) ----------

TEST(ValidateCommitment, RejectionIsAlwaysLegal) {
  const Instance inst = small_instance();
  Schedule s(1);
  EXPECT_EQ(validate_commitment(s, inst[0], Decision::reject()), "");
}

TEST(ValidateCommitment, LegalAcceptIsClean) {
  const Instance inst = small_instance();
  Schedule s(2);
  EXPECT_EQ(validate_commitment(s, inst[0], Decision::accept(1, 0.0)), "");
}

TEST(ValidateCommitment, FlagsMachineOutOfRange) {
  const Instance inst = small_instance();
  Schedule s(2);
  EXPECT_NE(validate_commitment(s, inst[0], Decision::accept(2, 0.0))
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(validate_commitment(s, inst[0], Decision::accept(-1, 0.0))
                .find("out of range"),
            std::string::npos);
}

TEST(ValidateCommitment, FlagsStartBeforeRelease) {
  const Instance inst = small_instance();
  Schedule s(1);
  // inst[1] releases at 1.0.
  EXPECT_NE(validate_commitment(s, inst[1], Decision::accept(0, 0.5))
                .find("precedes release"),
            std::string::npos);
}

TEST(ValidateCommitment, FlagsDeadlineMiss) {
  const Instance inst = small_instance();
  Schedule s(1);
  // inst[2]: release 2.0, proc 1.0, deadline 4.0 — starting at 3.5 misses.
  EXPECT_NE(validate_commitment(s, inst[2], Decision::accept(0, 3.5))
                .find("misses deadline"),
            std::string::npos);
}

TEST(ValidateCommitment, FlagsOverlapWithCommittedWork) {
  const Instance inst = small_instance();
  Schedule s(1);
  s.commit(inst[0], 0, 0.0);  // occupies [0, 2) on machine 0
  EXPECT_NE(validate_commitment(s, inst[1], Decision::accept(0, 1.0))
                .find("overlaps"),
            std::string::npos);
}

TEST(ValidateCommitment, AgreesWithEngineOnEveryDecision) {
  // The engine commits exactly the decisions the shared validator clears:
  // replay a run and re-check every recorded decision incrementally.
  const Instance inst = small_instance();
  GreedyScheduler greedy(2);
  const RunResult result = run_online(greedy, inst);
  Schedule replay(2);
  for (const DecisionRecord& record : result.decisions) {
    EXPECT_EQ(validate_commitment(replay, record.job, record.decision), "");
    if (record.decision.accepted) {
      replay.commit(record.job, record.decision.machine,
                    record.decision.start);
    }
  }
}

// ---------- engine ----------

TEST(Engine, RunsGreedyCleanly) {
  const Instance inst = small_instance();
  GreedyScheduler greedy(2);
  const RunResult result = run_online(greedy, inst);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.metrics.submitted, 3u);
  EXPECT_EQ(result.metrics.accepted + result.metrics.rejected, 3u);
  EXPECT_TRUE(validate_schedule(inst, result.schedule).ok);
  EXPECT_EQ(result.decisions.size(), 3u);
}

TEST(Engine, MetricsVolumeMatchesSchedule) {
  const Instance inst = small_instance();
  GreedyScheduler greedy(1);
  const RunResult result = run_online(greedy, inst);
  EXPECT_DOUBLE_EQ(result.metrics.accepted_volume,
                   result.schedule.total_volume());
  EXPECT_DOUBLE_EQ(
      result.metrics.accepted_volume + result.metrics.rejected_volume,
      inst.total_volume());
  EXPECT_DOUBLE_EQ(result.metrics.makespan, result.schedule.makespan());
}

/// A scheduler that makes an illegal commitment on the second job.
class CheatingScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    ++seen_;
    if (seen_ == 1) return Decision::accept(0, job.release);
    // Overlaps the first commitment on machine 0.
    return Decision::accept(0, job.release - 10.0);
  }
  int machines() const override { return 1; }
  void reset() override { seen_ = 0; }
  std::string name() const override { return "Cheater"; }

 private:
  int seen_ = 0;
};

TEST(Engine, DetectsIllegalCommitment) {
  const Instance inst = small_instance();
  CheatingScheduler cheater;
  const RunResult result = run_online(cheater, inst);
  EXPECT_FALSE(result.clean());
  EXPECT_FALSE(result.commitment_violation.empty());
  // Halted at the violation: only the first decision was committed.
  EXPECT_EQ(result.metrics.accepted, 1u);
}

/// A scheduler that claims a machine index outside its range.
class OutOfRangeScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    return Decision::accept(7, job.release);
  }
  int machines() const override { return 2; }
  void reset() override {}
  std::string name() const override { return "OutOfRange"; }
};

TEST(Engine, DetectsMachineOutOfRange) {
  OutOfRangeScheduler bad;
  const RunResult result = run_online(bad, small_instance());
  EXPECT_FALSE(result.clean());
  EXPECT_NE(result.commitment_violation.find("out of range"),
            std::string::npos);
}

/// A scheduler that commits past the deadline.
class DeadlineMissScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& job) override {
    return Decision::accept(0, job.deadline - job.proc / 2.0);
  }
  int machines() const override { return 1; }
  void reset() override {}
  std::string name() const override { return "DeadlineMiss"; }
};

TEST(Engine, DetectsDeadlineMissCommitment) {
  DeadlineMissScheduler bad;
  const RunResult result = run_online(bad, small_instance());
  EXPECT_FALSE(result.clean());
  EXPECT_NE(result.commitment_violation.find("misses deadline"),
            std::string::npos);
}

// ---------- gantt ----------

TEST(Gantt, RendersEveryMachineRow) {
  const Instance inst = small_instance();
  GreedyScheduler greedy(2);
  const RunResult result = run_online(greedy, inst);
  std::ostringstream out;
  GanttOptions options;
  options.title = "demo-gantt";
  render_gantt(out, result.schedule, options);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("demo-gantt"), std::string::npos);
  EXPECT_NE(rendered.find("m0"), std::string::npos);
  EXPECT_NE(rendered.find("m1"), std::string::npos);
  EXPECT_NE(rendered.find('['), std::string::npos);
}

}  // namespace
}  // namespace slacksched
