/// \file
/// The commitment-enforcing simulation engine.
///
/// Replays an instance against an OnlineScheduler in submission order and
/// records every decision into a Schedule. Acceptance is binding: the engine
/// immediately checks that each committed allocation is physically possible
/// (machine in range, start after release, no overlap with earlier
/// commitments, completion by the deadline) and refuses to continue past a
/// violation — an algorithm cannot gain objective value through an illegal
/// promise. This realizes the "immediate commitment" model of the paper.
///
/// Two entry points share one implementation: run_online replays a whole
/// Instance, and StreamingRunner feeds one job at a time. With decision
/// recording disabled (RunOptions::record_decisions) the streaming path
/// accumulates metrics only and performs no per-job heap allocation beyond
/// the committed schedule itself. Both keep the whole schedule, every
/// model and every speed profile: this is the offline engine the
/// experiments, the model matrix and the benchmark's oracle run. The
/// service does not run it — a gateway shard holds only m busy-until marks
/// and checks each decision with validate_served_commitment
/// (sched/validator.hpp).
///
/// Deferred commitment (models/commitment.hpp): when the scheduler's
/// contract allows deferral, feed() first drains every decision that became
/// binding before the new arrival (OnlineScheduler::advance_to), applies
/// each one under the model-aware validate_commitment overload — same
/// halt-on-violation rule — and only then consults on_arrival, which may
/// answer Decision::defer(). finish() drains to the end of time so every
/// submitted job ends the run decided. Commit-on-arrival schedulers never
/// defer and take the original path untouched.
#pragma once

#include <string>
#include <vector>

#include "job/instance.hpp"
#include "sched/metrics.hpp"
#include "sched/online.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// Everything a run produced.
struct RunResult {
  Schedule schedule;
  RunMetrics metrics;
  std::vector<DecisionRecord> decisions;
  /// Description of the first commitment violation, empty when clean. Tests
  /// assert on this being empty; benches treat a violation as a fatal bug.
  std::string commitment_violation;

  [[nodiscard]] bool clean() const { return commitment_violation.empty(); }
};

/// Knobs of the replay loop.
struct RunOptions {
  /// Keep per-job DecisionRecords. Disable for multi-million-job streams
  /// where only metrics and the committed schedule matter — the decision
  /// log is the only per-job allocation on the engine's path.
  bool record_decisions = true;
};

/// What StreamingRunner::feed did with one job.
struct FeedOutcome {
  /// False iff the runner had already halted and the job was dropped
  /// undecided (the scheduler was not consulted).
  bool decided = false;
  /// True iff the decision was legal and applied (committed or counted as
  /// a rejection). False marks the commitment violation that poisoned the
  /// run.
  bool legal = false;
  Decision decision;
};

/// The engine's inner loop as an incremental object: feed jobs one at a
/// time in submission order, read live metrics, take the RunResult at the
/// end. Exactly the semantics of run_online — same decision recording,
/// same commitment-legality check, same halt-on-violation rule.
class StreamingRunner {
 public:
  /// Resets the scheduler and starts an empty run.
  explicit StreamingRunner(OnlineScheduler& scheduler,
                           const RunOptions& options = {});

  /// Pre-sizes the decision log (no-op when recording is disabled).
  void reserve_decisions(std::size_t n);

  /// Decides one job (now == job.release; callers feed non-decreasing
  /// release dates). No-op returning decided == false once halted.
  FeedOutcome feed(const Job& job);

  /// True once an illegal commitment occurred: the runner stops deciding.
  [[nodiscard]] bool halted() const { return halted_; }

  /// Live view of the run so far (metrics lag feed() by nothing; the
  /// makespan field is only filled by finish()).
  [[nodiscard]] const RunResult& result() const { return result_; }

  /// Finalizes the makespan and moves the result out. The runner must not
  /// be fed afterwards.
  [[nodiscard]] RunResult finish();

 private:
  /// Builds the empty schedule, speed-aware when the scheduler reports a
  /// related-machine profile.
  [[nodiscard]] static Schedule make_schedule(const OnlineScheduler& s);

  /// Pulls and applies every decision that became binding up to `now`.
  void drain_resolutions(TimePoint now);
  void apply_resolution(const DeferredResolution& resolution);

  OnlineScheduler* scheduler_;
  RunOptions options_;
  RunResult result_;
  CommitmentContract contract_;
  /// Scratch buffer reused across drain_resolutions calls.
  std::vector<DeferredResolution> resolved_;
  bool halted_ = false;
};

/// Runs the scheduler over the instance. The scheduler is reset() first.
/// Processing stops at the first illegal commitment, which is reported in
/// the result.
[[nodiscard]] RunResult run_online(OnlineScheduler& scheduler,
                                   const Instance& instance,
                                   const RunOptions& options = {});

}  // namespace slacksched
