// Preemptive feasibility tests built on the max-flow substrate.
//
// With preemption AND migration on m identical machines, a set of jobs is
// schedulable iff the natural job->interval flow network (IntervalFlow in
// offline/maxflow.hpp) saturates every job edge (the classic flow
// formulation of P|r_j, d_j, pmtn|-). This is exact — not a relaxation —
// for the migration model, and it is the admission oracle of the migration
// baseline.
#pragma once

#include <vector>

#include "job/job.hpp"

namespace slacksched {

/// A job fragment still to be executed: `remaining` units available from
/// `now`, due by `deadline`.
struct RemainingJob {
  JobId id = 0;
  Duration remaining = 0.0;
  TimePoint deadline = 0.0;
};

/// Exact feasibility of completing all fragments within their deadlines
/// on `machines` identical machines with preemption and migration,
/// starting at time `now` (all fragments are available).
[[nodiscard]] bool preemptive_migration_feasible(
    const std::vector<RemainingJob>& fragments, int machines, TimePoint now);

/// Exact feasibility for full jobs with release dates (preemption +
/// migration): max flow over release/deadline event intervals.
[[nodiscard]] bool preemptive_migration_feasible_jobs(
    const std::vector<Job>& jobs, int machines);

}  // namespace slacksched
