#include "baselines/greedy.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace slacksched {

std::string to_string(GreedyPolicy policy) {
  switch (policy) {
    case GreedyPolicy::kBestFit:
      return "best-fit";
    case GreedyPolicy::kFirstFit:
      return "first-fit";
    case GreedyPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

GreedyScheduler::GreedyScheduler(int machines, GreedyPolicy policy)
    : machines_(machines), policy_(policy), frontier_(machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
}

GreedyScheduler::GreedyScheduler(SpeedProfile speeds, GreedyPolicy policy)
    : machines_(speeds.machines()),
      policy_(policy),
      frontier_(speeds.machines(), speeds.speeds()) {
  if (!speeds.uniform()) profile_ = std::move(speeds);
}

int GreedyScheduler::machines() const { return machines_; }

void GreedyScheduler::reset() { frontier_.reset(); }

std::string GreedyScheduler::name() const {
  std::string n = "Greedy[" + to_string(policy_) +
                  "](m=" + std::to_string(machines_) + ")";
  if (profile_) n.append("[").append(profile_->label()).append("]");
  return n;
}

const SpeedProfile* GreedyScheduler::speed_profile() const {
  return profile_ ? &*profile_ : nullptr;
}

bool GreedyScheduler::restore_commitment(const Job& job, int machine,
                                         TimePoint start) {
  if (machine < 0 || machine >= machines_) return false;
  frontier_.update(machine,
                   std::max(frontier_.frontier(machine),
                            start + frontier_.exec_time(machine, job.proc)));
  return true;
}

bool GreedyScheduler::supports_elastic() const {
  return frontier_.uniform_speeds();
}

int GreedyScheduler::active_machines() const {
  return frontier_.active_machines();
}

int GreedyScheduler::add_machine() {
  if (!supports_elastic()) return -1;
  const int machine = frontier_.add_machine();
  machines_ = frontier_.size();
  return machine;
}

bool GreedyScheduler::begin_retire(int machine) {
  if (!supports_elastic()) return false;
  if (machine < 0 || machine >= machines_) return false;
  if (!frontier_.is_active(machine)) return false;
  if (frontier_.active_machines() <= 1) return false;
  frontier_.begin_retire(machine);
  return true;
}

bool GreedyScheduler::retire_drained(int machine, TimePoint now) const {
  if (machine < 0 || machine >= machines_) return false;
  return frontier_.retire_drained(machine, now);
}

bool GreedyScheduler::finish_retire(int machine) {
  if (machine < 0 || machine >= machines_) return false;
  if (!frontier_.is_retiring(machine)) return false;
  frontier_.finish_retire(machine);
  return true;
}

bool GreedyScheduler::is_retiring(int machine) const {
  if (machine < 0 || machine >= machines_) return false;
  return frontier_.is_retiring(machine);
}

int GreedyScheduler::retire_candidate() const {
  if (!supports_elastic()) return -1;
  return frontier_.retire_candidate();
}

int GreedyScheduler::busy_machines(TimePoint now) const {
  return frontier_.first_position_not_above(now);
}

Decision GreedyScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  const TimePoint t = job.release;

  int chosen = -1;
  switch (policy_) {
    case GreedyPolicy::kBestFit:
      chosen = frontier_.best_fit(t, job.proc, job.deadline);
      break;
    case GreedyPolicy::kLeastLoaded:
      chosen = frontier_.least_loaded_fit(t, job.proc, job.deadline);
      break;
    case GreedyPolicy::kFirstFit:
      // First fit is inherently an index-order question; the early-exit
      // scan stops at the first feasible machine (usually machine 0).
      for (int i = 0; i < machines_; ++i) {
        if (!frontier_.is_active(i)) continue;
        const Duration load = frontier_.load(i, t);
        if (approx_le(t + load + frontier_.exec_time(i, job.proc),
                      job.deadline)) {
          chosen = i;
          break;
        }
      }
      break;
  }
  if (chosen < 0) return Decision::reject();

  const TimePoint start = t + frontier_.load(chosen, t);
  frontier_.update(chosen, start + frontier_.exec_time(chosen, job.proc));
  return Decision::accept(chosen, start);
}

}  // namespace slacksched
