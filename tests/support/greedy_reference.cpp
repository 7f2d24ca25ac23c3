#include "greedy_reference.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace slacksched {

ReferenceGreedyScheduler::ReferenceGreedyScheduler(int machines,
                                                   GreedyPolicy policy)
    : machines_(machines),
      policy_(policy),
      frontier_(static_cast<std::size_t>(machines), 0.0) {
  SLACKSCHED_EXPECTS(machines >= 1);
}

int ReferenceGreedyScheduler::machines() const { return machines_; }

void ReferenceGreedyScheduler::reset() {
  std::fill(frontier_.begin(), frontier_.end(), 0.0);
}

std::string ReferenceGreedyScheduler::name() const {
  return "ReferenceGreedy[" + to_string(policy_) +
         "](m=" + std::to_string(machines_) + ")";
}

Decision ReferenceGreedyScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  const TimePoint t = job.release;

  int chosen = -1;
  Duration chosen_load = 0.0;
  for (int i = 0; i < machines_; ++i) {
    const Duration load =
        std::max(0.0, frontier_[static_cast<std::size_t>(i)] - t);
    if (!approx_le(t + load + job.proc, job.deadline)) continue;
    bool better = false;
    if (chosen < 0) {
      better = true;
    } else {
      switch (policy_) {
        case GreedyPolicy::kBestFit:
          better = load > chosen_load;
          break;
        case GreedyPolicy::kFirstFit:
          better = false;  // first candidate wins
          break;
        case GreedyPolicy::kLeastLoaded:
          better = load < chosen_load;
          break;
      }
    }
    if (better) {
      chosen = i;
      chosen_load = load;
    }
  }
  if (chosen < 0) return Decision::reject();

  const TimePoint start = t + chosen_load;
  frontier_[static_cast<std::size_t>(chosen)] = start + job.proc;
  return Decision::accept(chosen, start);
}

}  // namespace slacksched
