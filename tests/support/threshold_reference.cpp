#include "threshold_reference.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace slacksched {

ReferenceThresholdScheduler::ReferenceThresholdScheduler(
    const ThresholdConfig& config)
    : config_(config),
      solution_(config.k_override
                    ? RatioFunction::solve_with_k(config.eps, config.machines,
                                                  *config.k_override)
                    : RatioFunction::solve(config.eps, config.machines)),
      frontier_(static_cast<std::size_t>(config.machines), 0.0) {
  SLACKSCHED_EXPECTS(config.machines >= 1);
  SLACKSCHED_EXPECTS(config.eps > 0.0 && config.eps <= 1.0);
}

ReferenceThresholdScheduler::ReferenceThresholdScheduler(double eps,
                                                         int machines)
    : ReferenceThresholdScheduler(
          ThresholdConfig{eps, machines, std::nullopt, std::nullopt}) {}

int ReferenceThresholdScheduler::machines() const { return config_.machines; }

void ReferenceThresholdScheduler::reset() {
  std::fill(frontier_.begin(), frontier_.end(), 0.0);
}

std::string ReferenceThresholdScheduler::name() const {
  std::string n = "ReferenceThreshold(eps=" + std::to_string(config_.eps) +
                  ", m=" + std::to_string(config_.machines) + ")";
  if (config_.k_override) {
    n += "[k=" + std::to_string(*config_.k_override) + "]";
  }
  return n;
}

std::vector<Duration> ReferenceThresholdScheduler::loads(TimePoint now) const {
  std::vector<Duration> result(frontier_.size());
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    result[i] = std::max(0.0, frontier_[i] - now);
  }
  return result;
}

TimePoint ReferenceThresholdScheduler::deadline_threshold(
    TimePoint now) const {
  // Outstanding loads, sorted decreasingly: position h (1-based) carries
  // factor f_h for h >= k.
  std::vector<Duration> sorted = loads(now);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());

  TimePoint d_lim = now;  // with zero loads the threshold is `now`
  for (int h = solution_.k; h <= config_.machines; ++h) {
    const Duration l_h = sorted[static_cast<std::size_t>(h - 1)];
    d_lim = std::max(d_lim, now + l_h * solution_.f_at(h));
  }
  return d_lim;
}

Decision ReferenceThresholdScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  const TimePoint t = job.release;

  // Decision phase (Lines 4-6): reject iff d_j < d_lim.
  const TimePoint d_lim = deadline_threshold(t);
  if (definitely_less(job.deadline, d_lim)) {
    return Decision::reject();
  }

  // Allocation phase (Lines 9-10): best fit — the most loaded candidate
  // machine that still completes the job on time; start right after its
  // outstanding load.
  int best = -1;
  Duration best_load = -1.0;
  for (int i = 0; i < config_.machines; ++i) {
    const Duration load =
        std::max(0.0, frontier_[static_cast<std::size_t>(i)] - t);
    if (!approx_le(t + load + job.proc, job.deadline)) continue;
    if (load > best_load) {
      best_load = load;
      best = i;
    }
  }
  SLACKSCHED_ENSURES(best >= 0);

  const TimePoint start = t + best_load;
  frontier_[static_cast<std::size_t>(best)] = start + job.proc;
  return Decision::accept(best, start);
}

}  // namespace slacksched
