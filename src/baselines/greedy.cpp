#include "baselines/greedy.hpp"

#include <utility>

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
    : policy_(policy), frontier_(machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
}

GreedyScheduler::GreedyScheduler(SpeedProfile speeds, GreedyPolicy policy)
    : policy_(policy),
      frontier_(speeds.machines(), speeds.speeds()) {
  if (!speeds.uniform()) profile_ = std::move(speeds);
}

int GreedyScheduler::machines() const { return frontier_.size(); }

void GreedyScheduler::reset() { frontier_.reset(); }

std::string GreedyScheduler::name() const {
  std::string n = "Greedy[" + to_string(policy_) +
                  "](m=" + std::to_string(machines()) + ")";
  if (profile_) n.append("[").append(profile_->label()).append("]");
  return n;
}

const SpeedProfile* GreedyScheduler::speed_profile() const {
  return profile_ ? &*profile_ : nullptr;
}

bool GreedyScheduler::restore_frontiers(
    const std::vector<TimePoint>& busy_until) {
  return frontier_.assign(busy_until);
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
      for (int i = 0; i < frontier_.size(); ++i) {
        if (approx_le(frontier_.start(i, t) + frontier_.exec_time(i, job.proc),
                      job.deadline)) {
          chosen = i;
          break;
        }
      }
      break;
  }
  if (chosen < 0) return Decision::reject();

  const TimePoint start = frontier_.start(chosen, t);
  frontier_.update(chosen, start + frontier_.exec_time(chosen, job.proc));
  return Decision::accept(chosen, start);
}

}  // namespace slacksched
