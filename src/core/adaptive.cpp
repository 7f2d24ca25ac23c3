#include "core/adaptive.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "core/ratio_function.hpp"
#include "core/threshold.hpp"

namespace slacksched {

WideSlackScheduler::WideSlackScheduler(double eps, int machines)
    : eps_(eps),
      machines_(machines),
      frontier_(static_cast<std::size_t>(machines), 0.0) {
  SLACKSCHED_EXPECTS(eps > 1.0);
  SLACKSCHED_EXPECTS(machines >= 1);
}

int WideSlackScheduler::machines() const { return machines_; }

void WideSlackScheduler::reset() {
  std::fill(frontier_.begin(), frontier_.end(), 0.0);
}

std::string WideSlackScheduler::name() const {
  return "WideSlackGreedy(eps=" + std::to_string(eps_) +
         ", m=" + std::to_string(machines_) + ")";
}

Decision WideSlackScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  const TimePoint t = job.release;
  // Non-delay: the earliest possible start, i.e. the least loaded machine.
  int chosen = -1;
  Duration chosen_load = 0.0;
  for (int i = 0; i < machines_; ++i) {
    const TimePoint frontier = frontier_[static_cast<std::size_t>(i)];
    const Duration load = std::max(0.0, frontier - t);
    if (!approx_le(start_after(frontier, t) + job.proc, job.deadline)) {
      continue;
    }
    if (chosen < 0 || load < chosen_load) {
      chosen = i;
      chosen_load = load;
    }
  }
  if (chosen < 0) return Decision::reject();
  const TimePoint start =
      start_after(frontier_[static_cast<std::size_t>(chosen)], t);
  frontier_[static_cast<std::size_t>(chosen)] = start + job.proc;
  return Decision::accept(chosen, start);
}

std::unique_ptr<OnlineScheduler> make_adaptive_scheduler(double eps,
                                                         int machines) {
  SLACKSCHED_EXPECTS(eps > 0.0);
  SLACKSCHED_EXPECTS(machines >= 1);
  if (eps <= 1.0) {
    return std::make_unique<ThresholdScheduler>(eps, machines);
  }
  return std::make_unique<WideSlackScheduler>(eps, machines);
}

double adaptive_guarantee(double eps, int machines) {
  SLACKSCHED_EXPECTS(eps > 0.0);
  SLACKSCHED_EXPECTS(machines >= 1);
  if (eps <= 1.0) {
    return RatioFunction::solve(eps, machines).theorem2_bound();
  }
  return WideSlackScheduler::guarantee();
}

}  // namespace slacksched
