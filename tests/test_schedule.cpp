#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include "common/expects.hpp"
#include "sched/validator.hpp"

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

TEST(Schedule, RequiresAtLeastOneMachine) {
  EXPECT_THROW(Schedule(0), PreconditionError);
  EXPECT_NO_THROW(Schedule(1));
}

TEST(Schedule, CommitAndQuery) {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 2.0, 10.0), 0, 0.0);
  s.commit(make_job(2, 0.0, 3.0, 10.0), 1, 1.0);
  EXPECT_EQ(s.job_count(), 2u);
  EXPECT_DOUBLE_EQ(s.total_volume(), 5.0);
  EXPECT_DOUBLE_EQ(s.frontier(0), 2.0);
  EXPECT_DOUBLE_EQ(s.frontier(1), 4.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);
}

TEST(Schedule, OutstandingLoadClampsAtZero) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 2.0, 10.0), 0, 0.0);
  EXPECT_DOUBLE_EQ(s.outstanding_load(0, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(s.outstanding_load(0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(s.outstanding_load(0, 5.0), 0.0);
}

TEST(Schedule, RejectsOverlap) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 2.0, 10.0), 0, 1.0);  // occupies [1, 3)
  EXPECT_THROW(s.commit(make_job(2, 0.0, 1.0, 10.0), 0, 2.5),
               PreconditionError);
  EXPECT_THROW(s.commit(make_job(3, 0.0, 5.0, 10.0), 0, 0.0),
               PreconditionError);
}

TEST(Schedule, AllowsTouchingIntervals) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 2.0, 10.0), 0, 1.0);              // [1, 3)
  EXPECT_NO_THROW(s.commit(make_job(2, 0.0, 1.0, 10.0), 0, 3.0));  // [3, 4)
  EXPECT_NO_THROW(s.commit(make_job(3, 0.0, 1.0, 10.0), 0, 0.0));  // [0, 1)
  EXPECT_EQ(s.job_count(), 3u);
}

TEST(Schedule, IntervalFree) {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 2.0, 10.0), 0, 1.0);
  EXPECT_FALSE(s.interval_free(0, 0.5, 1.0));
  EXPECT_TRUE(s.interval_free(0, 3.0, 1.0));
  EXPECT_TRUE(s.interval_free(1, 0.5, 1.0));  // other machine untouched
}

TEST(Schedule, KeepsPerMachineOrder) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 1.0, 20.0), 0, 5.0);
  s.commit(make_job(2, 0.0, 1.0, 20.0), 0, 1.0);
  s.commit(make_job(3, 0.0, 1.0, 20.0), 0, 3.0);
  const auto& list = s.on_machine(0);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].job.id, 2);
  EXPECT_EQ(list[1].job.id, 3);
  EXPECT_EQ(list[2].job.id, 1);
}

TEST(Schedule, FindLocatesPlacement) {
  Schedule s(2);
  s.commit(make_job(42, 0.0, 1.0, 5.0), 1, 2.0);
  const auto p = s.find(42);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->machine, 1);
  EXPECT_DOUBLE_EQ(p->start, 2.0);
  EXPECT_DOUBLE_EQ(p->completion(), 3.0);
  EXPECT_FALSE(s.find(99).has_value());
}

TEST(Schedule, AllPlacements) {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 1.0, 5.0), 0, 0.0);
  s.commit(make_job(2, 0.0, 1.0, 5.0), 1, 0.0);
  EXPECT_EQ(s.all_placements().size(), 2u);
}

TEST(Schedule, RejectsBadMachineIndex) {
  Schedule s(2);
  EXPECT_THROW(s.commit(make_job(1, 0.0, 1.0, 5.0), 2, 0.0),
               PreconditionError);
  EXPECT_THROW(s.commit(make_job(1, 0.0, 1.0, 5.0), -1, 0.0),
               PreconditionError);
  EXPECT_THROW((void)s.frontier(5), PreconditionError);
}

TEST(Schedule, EmptyQueries) {
  Schedule s(3);
  EXPECT_EQ(s.job_count(), 0u);
  EXPECT_DOUBLE_EQ(s.total_volume(), 0.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
  EXPECT_DOUBLE_EQ(s.frontier(2), 0.0);
}

// ---------- settling: dropping what no future job can overlap ----------

/// Machine 0 holds [0, 2), [2, 5) and [8, 10); machine 1 holds [1, 4).
Schedule settling_fixture() {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 2.0, 20.0), 0, 0.0);
  s.commit(make_job(2, 0.0, 3.0, 20.0), 0, 2.0);
  s.commit(make_job(3, 0.0, 2.0, 20.0), 0, 8.0);
  s.commit(make_job(4, 0.0, 3.0, 20.0), 1, 1.0);
  return s;
}

TEST(ScheduleSettle, DropsCompletedPrefixAndKeepsAggregates) {
  Schedule s = settling_fixture();
  const std::size_t count = s.job_count();
  const double volume = s.total_volume();
  const TimePoint makespan = s.makespan();
  const TimePoint f0 = s.frontier(0);
  const TimePoint f1 = s.frontier(1);

  // Completions at or before 6: [0, 2), [2, 5) and [1, 4) go.
  EXPECT_EQ(s.settle_before(6.0), 1u);
  ASSERT_EQ(s.on_machine(0).size(), 1u);
  EXPECT_EQ(s.on_machine(0)[0].job.id, 3);
  EXPECT_TRUE(s.on_machine(1).empty());
  EXPECT_EQ(s.all_placements().size(), 1u);
  EXPECT_FALSE(s.find(2).has_value());  // only held placements are found
  EXPECT_TRUE(s.find(3).has_value());

  EXPECT_EQ(s.job_count(), count);
  EXPECT_EQ(s.total_volume(), volume);
  EXPECT_EQ(s.makespan(), makespan);
  EXPECT_EQ(s.frontier(0), f0);
  EXPECT_EQ(s.frontier(1), f1);
  EXPECT_DOUBLE_EQ(s.outstanding_load(0, 6.0), 4.0);

  // A completion exactly at the horizon is settled; one past it is kept.
  EXPECT_EQ(s.settle_before(9.999), 1u);
  EXPECT_EQ(s.settle_before(10.0), 0u);
  EXPECT_EQ(s.job_count(), count);
  EXPECT_EQ(s.total_volume(), volume);
}

TEST(ScheduleSettle, RefusesAnyStartBeforeTheSettledMark) {
  // [3, 4) overlaps the dropped [2, 5): the schedule no longer holds that
  // placement, so only the settled mark (5 on machine 0) can refuse it.
  Schedule s = settling_fixture();
  ASSERT_FALSE(s.interval_free(0, 3.0, 1.0));  // unsettled: plain overlap
  s.settle_before(6.0);
  EXPECT_FALSE(s.interval_free(0, 3.0, 1.0));
  EXPECT_FALSE(s.interval_free(0, 4.5, 0.5));  // [4.5, 5) too
  const Job late = make_job(9, 3.0, 1.0, 20.0);
  EXPECT_FALSE(validate_commitment(s, late, Decision::accept(0, 3.0)).empty());
  EXPECT_THROW(s.commit(late, 0, 3.0), PreconditionError);

  // The mark itself, within tolerance, is free: [5, 8) touches nothing.
  EXPECT_TRUE(s.interval_free(0, 5.0, 3.0));
  EXPECT_TRUE(s.interval_free(0, 5.0 - kTimeEps / 2, 3.0));
  EXPECT_TRUE(validate_commitment(s, make_job(10, 5.0, 3.0, 20.0),
                                  Decision::accept(0, 5.0))
                  .empty());
  // Machine 1's mark is its own (4), not machine 0's.
  EXPECT_FALSE(s.interval_free(1, 3.5, 0.5));
  EXPECT_TRUE(s.interval_free(1, 4.0, 1.0));
}

TEST(ScheduleSettle, HorizonZeroLeavesAFreshScheduleUntouched) {
  Schedule settled = settling_fixture();
  const Schedule never = settling_fixture();
  EXPECT_EQ(settled.settle_before(0.0), 4u);
  for (int m = 0; m < 2; ++m) {
    ASSERT_EQ(settled.on_machine(m).size(), never.on_machine(m).size());
    for (std::size_t i = 0; i < never.on_machine(m).size(); ++i) {
      EXPECT_EQ(settled.on_machine(m)[i].job, never.on_machine(m)[i].job);
      EXPECT_EQ(settled.on_machine(m)[i].start, never.on_machine(m)[i].start);
    }
  }
  // Every probe, including starts before any placement, answers alike.
  for (int m = 0; m < 2; ++m) {
    for (double start = -2.0; start <= 12.0; start += 0.5) {
      EXPECT_EQ(settled.interval_free(m, start, 1.0),
                never.interval_free(m, start, 1.0))
          << "machine " << m << " start " << start;
    }
  }
  EXPECT_NO_THROW(settled.commit(make_job(5, 0.0, 1.0, 20.0), 1, 0.0));
}

TEST(ScheduleSettle, RelatedSpeedsSettleByExecutionTime) {
  // p = 8 runs for 8 on the unit machine and for 2 on the speed-4 one.
  Schedule s(2, {1.0, 4.0});
  s.commit(make_job(1, 0.0, 8.0, 20.0), 0, 0.0);  // [0, 8)
  s.commit(make_job(2, 0.0, 8.0, 20.0), 1, 0.0);  // [0, 2)
  EXPECT_EQ(s.settle_before(3.0), 1u);
  EXPECT_EQ(s.on_machine(0).size(), 1u);
  EXPECT_TRUE(s.on_machine(1).empty());
  EXPECT_FALSE(s.interval_free(1, 1.0, 4.0));  // [1, 2) on machine 1
  EXPECT_TRUE(s.interval_free(1, 2.0, 4.0));
  EXPECT_EQ(s.total_volume(), 16.0);
  EXPECT_EQ(s.frontier(1), 2.0);
}

}  // namespace
}  // namespace slacksched
