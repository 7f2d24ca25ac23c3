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
/// Instance, and StreamingRunner feeds one job at a time — the streaming
/// fast path the gateway shards (service/shard.cpp) drive directly. With
/// decision recording disabled (RunOptions::record_decisions) the streaming
/// path accumulates metrics only and performs no per-job heap allocation
/// beyond the committed schedule itself.
///
/// Settling (StreamingRunner::settle): a long-lived runner bounds the
/// schedule it holds by its live commitments. The horizon is the release of
/// the job fed last. Under on-arrival commitment every later decision is
/// for a job released no earlier (callers feed non-decreasing releases) and
/// starts at or after that release, so no future placement can overlap one
/// that completed by then. Under the δ-model a later drain may resolve a
/// still-pending job at a start before the *next* release, but never before
/// the current one: every pending decision binds at or after the time the
/// last drain reached. Soundness does not rest on the horizon, though: the
/// schedule refuses any start before a machine's settled mark. Every
/// in-tree scheduler places at t + load(m, t) >= frontier(m), so that
/// refusal never hits a legal decision, even when a multi-producer shard
/// feeds releases out of order.
/// run_online never settles: its RunResult keeps the whole schedule.
///
/// Deferred commitment (models/commitment.hpp): when the scheduler's
/// contract allows deferral, feed() first drains every decision that became
/// binding before the new arrival (OnlineScheduler::advance_to), applies
/// each one under the model-aware validate_commitment overload — same
/// write-ahead hook, same halt-on-violation rule — and only then consults
/// on_arrival, which may answer Decision::defer(). finish() drains to the
/// end of time so every submitted job ends the run decided. Commit-on-
/// arrival schedulers never defer and take the original path untouched.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "job/instance.hpp"
#include "sched/metrics.hpp"
#include "sched/online.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// Per-job record of what the algorithm decided.
struct DecisionRecord {
  Job job;
  Decision decision;
};

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
/// same commitment-legality check, same halt-on-violation rule — so a
/// consumer built on StreamingRunner (e.g. a gateway shard) is
/// byte-identical to the sequential engine.
class StreamingRunner {
 public:
  /// Invoked for every legal accepting decision after validation succeeds
  /// and *before* the in-memory commit is applied — the write-ahead
  /// ordering a durable commit log (service/commit_log.hpp) needs: if the
  /// process dies between the hook and the commit, replaying the log
  /// re-applies the allocation. A throwing hook aborts the commit; the
  /// job is then neither counted nor scheduled in memory, matching a
  /// crash at that point.
  using CommitHook = std::function<void(const Job&, const Decision&)>;

  /// Invoked for every legal resolution of a previously deferred job,
  /// after it was applied (committed or counted as a rejection). Lets a
  /// consumer that reports per-job outcomes (e.g. a gateway shard) observe
  /// decisions that arrive outside any feed() call.
  using ResolutionHook =
      std::function<void(const Job&, const Decision&, TimePoint decided_at)>;

  /// Resets the scheduler and starts an empty run.
  explicit StreamingRunner(OnlineScheduler& scheduler,
                           const RunOptions& options = {});

  /// Resumes a run from previously recovered state (service/recovery.hpp):
  /// the schedule and metrics continue from `state`, and — unlike the
  /// resetting constructor — the scheduler is taken as-is; the caller has
  /// already restored its internal state to match the schedule.
  [[nodiscard]] static StreamingRunner resumed(OnlineScheduler& scheduler,
                                               const RunOptions& options,
                                               RunResult state);

  StreamingRunner(StreamingRunner&&) = default;
  StreamingRunner& operator=(StreamingRunner&&) = default;

  /// Installs (or clears, with nullptr) the write-ahead commit hook.
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Installs (or clears, with nullptr) the deferred-resolution hook.
  void set_resolution_hook(ResolutionHook hook) {
    resolution_hook_ = std::move(hook);
  }

  /// Pre-sizes the decision log (no-op when recording is disabled).
  void reserve_decisions(std::size_t n);

  /// Decides one job (now == job.release; callers feed non-decreasing
  /// release dates). No-op returning decided == false once halted.
  FeedOutcome feed(const Job& job);

  /// Drops the committed placements no future decision can overlap (see
  /// the file comment for the horizon) and returns the number still held.
  /// Aggregates — job count, volume, makespan, frontiers, metrics — keep
  /// counting the whole run. A no-op before the first feed().
  std::size_t settle();

  /// True once an illegal commitment occurred: the runner stops deciding.
  [[nodiscard]] bool halted() const { return halted_; }

  /// Live view of the run so far (metrics lag feed() by nothing; the
  /// makespan field is only filled by finish()).
  [[nodiscard]] const RunResult& result() const { return result_; }

  /// Finalizes the makespan and moves the result out. The runner must not
  /// be fed afterwards.
  [[nodiscard]] RunResult finish();

 private:
  struct ResumeTag {};
  StreamingRunner(ResumeTag, OnlineScheduler& scheduler,
                  const RunOptions& options, RunResult state);

  /// Builds the empty schedule, speed-aware when the scheduler reports a
  /// related-machine profile.
  [[nodiscard]] static Schedule make_schedule(const OnlineScheduler& s);

  /// Pulls and applies every decision that became binding up to `now`.
  void drain_resolutions(TimePoint now);
  void apply_resolution(const DeferredResolution& resolution);

  OnlineScheduler* scheduler_;
  RunOptions options_;
  RunResult result_;
  CommitHook commit_hook_;
  ResolutionHook resolution_hook_;
  CommitmentContract contract_;
  /// Scratch buffer reused across drain_resolutions calls.
  std::vector<DeferredResolution> resolved_;
  /// Release of the job fed last: the settle() horizon.
  TimePoint last_release_ = -kTimeInfinity;
  bool halted_ = false;
};

/// Runs the scheduler over the instance. The scheduler is reset() first.
/// Processing stops at the first illegal commitment, which is reported in
/// the result.
[[nodiscard]] RunResult run_online(OnlineScheduler& scheduler,
                                   const Instance& instance,
                                   const RunOptions& options = {});

}  // namespace slacksched
