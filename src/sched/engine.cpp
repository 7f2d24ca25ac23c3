#include "sched/engine.hpp"

#include <utility>

#include "common/expects.hpp"
#include "sched/validator.hpp"

namespace slacksched {

Schedule StreamingRunner::make_schedule(const OnlineScheduler& s) {
  const SpeedProfile* profile = s.speed_profile();
  if (profile != nullptr) return Schedule(s.machines(), profile->speeds());
  return Schedule(s.machines());
}

StreamingRunner::StreamingRunner(OnlineScheduler& scheduler,
                                 const RunOptions& options)
    : scheduler_(&scheduler),
      options_(options),
      result_{make_schedule(scheduler), RunMetrics{}, {}, {}},
      contract_(scheduler.commitment_contract()) {
  scheduler_->reset();
}

StreamingRunner::StreamingRunner(ResumeTag, OnlineScheduler& scheduler,
                                 const RunOptions& options, RunResult state)
    : scheduler_(&scheduler),
      options_(options),
      result_(std::move(state)),
      contract_(scheduler.commitment_contract()) {
  SLACKSCHED_EXPECTS(result_.schedule.machines() == scheduler.machines());
}

StreamingRunner StreamingRunner::resumed(OnlineScheduler& scheduler,
                                         const RunOptions& options,
                                         RunResult state) {
  return StreamingRunner(ResumeTag{}, scheduler, options, std::move(state));
}

void StreamingRunner::reserve_decisions(std::size_t n) {
  if (options_.record_decisions) result_.decisions.reserve(n);
}

void StreamingRunner::drain_resolutions(TimePoint now) {
  resolved_.clear();
  scheduler_->advance_to(now, resolved_);
  for (const DeferredResolution& resolution : resolved_) {
    apply_resolution(resolution);
    if (halted_) break;
  }
}

void StreamingRunner::apply_resolution(const DeferredResolution& resolution) {
  if (options_.record_decisions) {
    result_.decisions.push_back({resolution.job, resolution.decision});
  }
  const std::string violation =
      validate_commitment(result_.schedule, resolution.job,
                          resolution.decision, resolution.decided_at,
                          contract_);
  if (!violation.empty()) {
    result_.commitment_violation = violation;
    halted_ = true;
    return;  // poisoned: the illegal commitment is never applied
  }
  if (resolution.decision.accepted) {
    if (commit_hook_) commit_hook_(resolution.job, resolution.decision);
    result_.schedule.commit(resolution.job, resolution.decision.machine,
                            resolution.decision.start);
    ++result_.metrics.accepted;
    result_.metrics.accepted_volume += resolution.job.proc;
  } else {
    ++result_.metrics.rejected;
    result_.metrics.rejected_volume += resolution.job.proc;
  }
  if (resolution_hook_) {
    resolution_hook_(resolution.job, resolution.decision,
                     resolution.decided_at);
  }
}

FeedOutcome StreamingRunner::feed(const Job& job) {
  FeedOutcome outcome;
  if (halted_) return outcome;  // poisoned run: drop without deciding
  if (contract_.model != CommitModel::kOnArrival) {
    // Decisions that became binding before this arrival land first, in
    // decision order, exactly as simulated time would have delivered them.
    drain_resolutions(job.release);
    if (halted_) return outcome;
  }
  outcome.decided = true;
  last_release_ = job.release;
  outcome.decision = scheduler_->on_arrival(job);
  ++result_.metrics.submitted;
  if (outcome.decision.deferred) {
    // Tentative: the binding decision (and its DecisionRecord) arrives
    // through a later drain. Nothing to validate or commit yet.
    outcome.legal = true;
    return outcome;
  }
  if (options_.record_decisions) {
    result_.decisions.push_back({job, outcome.decision});
  }

  const std::string violation =
      validate_commitment(result_.schedule, job, outcome.decision);
  if (!violation.empty()) {
    result_.commitment_violation = violation;
    halted_ = true;
    return outcome;  // poisoned: the illegal commitment is never applied
  }
  outcome.legal = true;

  if (outcome.decision.accepted) {
    // Write-ahead ordering: the durability hook runs before the in-memory
    // commit, so every commit that becomes visible is already logged.
    if (commit_hook_) commit_hook_(job, outcome.decision);
    result_.schedule.commit(job, outcome.decision.machine,
                            outcome.decision.start);
    ++result_.metrics.accepted;
    result_.metrics.accepted_volume += job.proc;
  } else {
    ++result_.metrics.rejected;
    result_.metrics.rejected_volume += job.proc;
  }
  return outcome;
}

std::size_t StreamingRunner::settle() {
  return result_.schedule.settle_before(last_release_);
}

RunResult StreamingRunner::finish() {
  if (contract_.model != CommitModel::kOnArrival && !halted_) {
    // End of stream: flush every still-tentative job to a binding decision.
    drain_resolutions(kTimeInfinity);
  }
  result_.metrics.makespan = result_.schedule.makespan();
  return std::move(result_);
}

RunResult run_online(OnlineScheduler& scheduler, const Instance& instance,
                     const RunOptions& options) {
  StreamingRunner runner(scheduler, options);
  runner.reserve_decisions(instance.size());
  for (const Job& job : instance.jobs()) {
    runner.feed(job);
    if (runner.halted()) break;
  }
  return runner.finish();
}

}  // namespace slacksched
