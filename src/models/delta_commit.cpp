#include "models/delta_commit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/expects.hpp"

namespace slacksched {

namespace {

/// Compact number for names: "0.25", not "0.250000".
std::string compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

std::string to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kEdf:
      return "edf";
    case QueuePolicy::kLargestFirst:
      return "largest-first";
    case QueuePolicy::kLeastSlackFirst:
      return "least-slack";
  }
  return "unknown";
}

DeltaCommitScheduler::DeltaCommitScheduler(const DeltaCommitConfig& config)
    : config_(config),
      profile_(config.speeds.empty() ? SpeedProfile(config.machines)
                                     : SpeedProfile(config.speeds)),
      contract_(config.commit_on_admission
                    ? CommitmentContract{CommitModel::kOnAdmission, 0.0}
                    : CommitmentContract{CommitModel::kDelta, config.delta}),
      frontier_(config.machines, profile_.speeds()) {
  SLACKSCHED_EXPECTS(config.machines >= 1);
  SLACKSCHED_EXPECTS(config.delta >= 0.0 && std::isfinite(config.delta));
  SLACKSCHED_EXPECTS(profile_.machines() == config.machines);
  max_speed_ = *std::max_element(profile_.speeds().begin(),
                                 profile_.speeds().end());
  // The contract must measure commitment windows against the same fleet:
  // τ_j clamps to d_j − p_j / s_max, not the identical-machine d_j − p_j.
  contract_.max_speed = profile_.uniform() ? 1.0 : max_speed_;
}

DeltaCommitScheduler::DeltaCommitScheduler(double delta, int machines)
    : DeltaCommitScheduler(
          DeltaCommitConfig{machines, delta, false, QueuePolicy::kEdf, {}}) {}

int DeltaCommitScheduler::machines() const { return config_.machines; }

void DeltaCommitScheduler::reset() {
  frontier_.reset();
  pending_.clear();
  stash_.clear();
  vt_ = 0.0;
  dirty_ = false;
}

std::string DeltaCommitScheduler::name() const {
  std::string n =
      config_.commit_on_admission
          ? "DeltaCommit[admission]"
          : "DeltaCommit(delta=" + compact(config_.delta) + ")";
  n += "(m=" + std::to_string(config_.machines) +
       ", queue=" + to_string(config_.queue) + ")";
  if (!profile_.uniform()) n.append("[").append(profile_.label()).append("]");
  return n;
}

CommitmentContract DeltaCommitScheduler::commitment_contract() const {
  return contract_;
}

const SpeedProfile* DeltaCommitScheduler::speed_profile() const {
  return profile_.uniform() ? nullptr : &profile_;
}

TimePoint DeltaCommitScheduler::commit_deadline(const Job& job) const {
  return contract_.commit_deadline(job);
}

TimePoint DeltaCommitScheduler::last_startable(const Job& job) const {
  return contract_.latest_start(job);
}

int DeltaCommitScheduler::pick_startable_on(int machine, TimePoint now) const {
  int best = -1;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Job& j = pending_[i];
    const TimePoint j_latest = j.deadline - frontier_.exec_time(machine, j.proc);
    if (definitely_less(j_latest, now)) continue;  // cannot start here
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Job& b = pending_[static_cast<std::size_t>(best)];
    bool better = false;
    switch (config_.queue) {
      case QueuePolicy::kEdf:
        better = j.deadline < b.deadline;
        break;
      case QueuePolicy::kLargestFirst:
        better = j.proc > b.proc;
        break;
      case QueuePolicy::kLeastSlackFirst:
        better = j_latest <
                 b.deadline - frontier_.exec_time(machine, b.proc);
        break;
    }
    if (better) best = static_cast<int>(i);
  }
  return best;
}

Decision DeltaCommitScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  SLACKSCHED_EXPECTS(approx_ge(job.release, 0.0));
  // The engine drains via advance_to before each arrival, making this
  // run_to a no-op; a direct driver that skips advance_to still gets a
  // consistent simulation, with the resolutions stashed for later.
  run_to(job.release, stash_);
  pending_.push_back(job);
  dirty_ = true;
  return Decision::defer();
}

void DeltaCommitScheduler::advance_to(
    TimePoint now, std::vector<DeferredResolution>& resolved) {
  if (!stash_.empty()) {
    resolved.insert(resolved.end(), stash_.begin(), stash_.end());
    stash_.clear();
  }
  run_to(now, resolved);
}

void DeltaCommitScheduler::run_to(TimePoint target,
                                  std::vector<DeferredResolution>& resolved) {
  for (;;) {
    if (dirty_ && definitely_less(vt_, target)) {
      dirty_ = false;
      step(vt_, resolved);
      continue;  // the step may have changed the event set
    }
    const TimePoint next = next_event_time();
    if (!definitely_less(next, target)) break;
    vt_ = next;
    dirty_ = true;
  }
  if (std::isfinite(target) && definitely_greater(target, vt_)) {
    // Park the clock at `target` with its step pending: it runs once every
    // arrival at `target` has been queued, so within one event time every
    // arrival is admitted before any machine starts.
    vt_ = target;
    dirty_ = true;
  }
}

TimePoint DeltaCommitScheduler::next_event_time() const {
  TimePoint next = kTimeInfinity;
  if (pending_.empty()) return next;
  for (int i = 0; i < config_.machines; ++i) {
    const TimePoint f = frontier_.frontier(i);
    if (definitely_greater(f, vt_)) next = std::min(next, f);
  }
  if (!config_.commit_on_admission) {
    for (const Job& j : pending_) {
      const TimePoint tau = commit_deadline(j);
      if (definitely_greater(tau, vt_)) next = std::min(next, tau);
    }
  }
  return next;
}

void DeltaCommitScheduler::step(TimePoint now,
                                std::vector<DeferredResolution>& resolved) {
  // 1. Expire: a pending job that not even the fastest machine could still
  //    complete is rejected — the admission queue's lazy drop.
  std::erase_if(pending_, [&](const Job& j) {
    if (definitely_less(last_startable(j), now)) {
      resolved.push_back({j, Decision::reject(), now});
      return true;
    }
    return false;
  });

  // 2. Force-commit every job whose commitment deadline τ_j has arrived:
  //    best-fit placement exactly as the commit-on-arrival greedy would
  //    decide at this instant, binding rejection when nothing fits. With
  //    δ = 0 this resolves each job at its own arrival, in arrival order —
  //    the commit-on-arrival boundary of the model.
  if (!config_.commit_on_admission) {
    for (std::size_t i = 0; i < pending_.size();) {
      if (!approx_le(commit_deadline(pending_[i]), now)) {
        ++i;
        continue;
      }
      const Job job = pending_[i];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      const int m = frontier_.best_fit(now, job.proc, job.deadline);
      if (m < 0) {
        resolved.push_back({job, Decision::reject(), now});
      } else {
        const TimePoint start = now + frontier_.load(m, now);
        frontier_.update(m, start + frontier_.exec_time(m, job.proc));
        resolved.push_back({job, Decision::accept(m, start), now});
      }
    }
  }

  // 3. Start work on every idle machine.
  for (int machine = 0; machine < config_.machines && !pending_.empty();
       ++machine) {
    while (approx_le(frontier_.frontier(machine), now)) {
      const int idx = pick_startable_on(machine, now);
      if (idx < 0) break;
      const Job job = pending_[static_cast<std::size_t>(idx)];
      pending_.erase(pending_.begin() + idx);
      frontier_.update(machine,
                       now + frontier_.exec_time(machine, job.proc));
      resolved.push_back({job, Decision::accept(machine, now), now});
    }
    if (pending_.empty()) break;
  }
}

}  // namespace slacksched
