// The seed commitment-on-admission queue scheduler, retained as the
// differential oracle for DeltaCommitScheduler's admission mode
// (models/delta_commit.hpp with commit_on_admission = true). It is a
// self-contained event loop with its own machine clocks and no engine, so
// test_model_equivalence can pin the streaming scheduler's schedules and
// accept/reject counts against an independent implementation. Only tests
// should call it. Do not change its decision logic.
#pragma once

#include <vector>

#include "job/instance.hpp"
#include "models/delta_commit.hpp"
#include "sched/metrics.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// Index of the best startable pending job at time `now` under the queue
/// policy, or -1 when none can still start.
[[nodiscard]] int pick_startable(const std::vector<Job>& pending,
                                 TimePoint now, QueuePolicy policy);

/// Result of a delayed-commitment run.
struct DelayedCommitResult {
  Schedule schedule;
  RunMetrics metrics;
};

/// Simulates the commitment-on-admission queue scheduler on m identical
/// machines: a job commits only when a machine starts it, and is dropped
/// (rejected) once its latest start passes in the queue.
[[nodiscard]] DelayedCommitResult run_delayed_commit(
    const Instance& instance, int machines,
    QueuePolicy policy = QueuePolicy::kEdf);

}  // namespace slacksched
