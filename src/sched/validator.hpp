/// \file
/// Independent schedule validation. Every experiment re-checks its schedules
/// here, so a bug in an algorithm cannot silently inflate its reported load:
/// Claim 1 of the paper ("Algorithm 1 completes any accepted job on time")
/// is asserted empirically on every run.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "job/instance.hpp"
#include "models/commitment.hpp"
#include "sched/decision.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// Result of validating a schedule against its instance.
struct ValidationReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string message) {
    ok = false;
    violations.push_back(std::move(message));
  }

  [[nodiscard]] std::string to_string() const;
};

/// Checks that `schedule` is a legal non-preemptive schedule of a subset of
/// `instance`:
///  - every placed job exists in the instance with identical parameters,
///  - no job is placed twice,
///  - starts respect release dates (start >= r_j),
///  - completions respect deadlines (start + p_j <= d_j),
///  - no two placements overlap on a machine.
[[nodiscard]] ValidationReport validate_schedule(const Instance& instance,
                                                 const Schedule& schedule);

/// Checks a single admission decision against the already-committed
/// schedule: a rejecting decision is always legal; an accepting decision
/// must name a machine in range, start no earlier than the job's release,
/// complete by its deadline, and not overlap earlier commitments on that
/// machine. Returns a description of the first violation, or an empty
/// string when the commitment is legal. This is the engine's legality path
/// (sched/engine.cpp); the service checks with validate_served_commitment.
[[nodiscard]] std::string validate_commitment(const Schedule& schedule,
                                              const Job& job,
                                              const Decision& decision);

/// Claim 1 for a served decision, against the one piece of state the
/// service keeps per machine: its busy-until mark, the latest completion
/// committed to it (0 before the first). Algorithm 1 starts an accepted
/// job right after its machine's outstanding load, so an accepting
/// decision must name a machine in [0, busy_until.size()), start no
/// earlier than r_j, complete (start + p_j, identical machines) by d_j,
/// and start no earlier than the machine's mark. A start in an idle gap
/// before the mark is refused: no served scheduler places one. Same
/// tolerance as validate_commitment. Returns the first violation, or an
/// empty string; a rejecting decision is always legal. The one check of
/// a gateway shard (service/shard.cpp) and of commit-log recovery
/// (service/recovery.cpp). On accept the caller raises the mark to
/// max(mark, start + p_j).
[[nodiscard]] std::string validate_served_commitment(
    std::span<const TimePoint> busy_until, const Job& job,
    const Decision& decision);

/// Commitment-model-aware variant: the physical checks above plus the
/// irrevocability contract (models/commitment.hpp). `decided_at` is the
/// simulated time the decision became binding. An accepting decision must
/// additionally satisfy
///  - decided_at in [r_j, contract.commit_deadline(j)] (on-arrival pins
///    decided_at == r_j; on-admission allows any time up to the latest
///    start),
///  - start >= decided_at (no retroactive commitments), and
///  - under commitment-on-admission, start == decided_at (the commitment
///    *is* the start).
/// A rejecting decision is always legal; a still-deferred decision is never
/// a commitment and is reported as a violation.
[[nodiscard]] std::string validate_commitment(const Schedule& schedule,
                                              const Job& job,
                                              const Decision& decision,
                                              TimePoint decided_at,
                                              const CommitmentContract& contract);

}  // namespace slacksched
