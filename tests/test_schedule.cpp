#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include "common/expects.hpp"

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

}  // namespace
}  // namespace slacksched
