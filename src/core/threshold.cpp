#include "core/threshold.hpp"

#include <algorithm>
#include <span>

#include "common/expects.hpp"

namespace slacksched {

ThresholdScheduler::ThresholdScheduler(const ThresholdConfig& config)
    : config_(config),
      solution_(config.k_override
                    ? RatioFunction::solve_with_k(config.eps, config.machines,
                                                  *config.k_override)
                    : RatioFunction::solve(config.eps, config.machines)),
      frontier_(config.machines,
                config.speeds ? config.speeds->speeds()
                              : std::vector<double>{}) {
  SLACKSCHED_EXPECTS(config.machines >= 1);
  SLACKSCHED_EXPECTS(config.eps > 0.0 && config.eps <= 1.0);
  SLACKSCHED_EXPECTS(!config.speeds ||
                     config.speeds->machines() == config.machines);
}

ThresholdScheduler::ThresholdScheduler(double eps, int machines)
    : ThresholdScheduler(
          ThresholdConfig{eps, machines, std::nullopt, std::nullopt}) {}

const SpeedProfile* ThresholdScheduler::speed_profile() const {
  if (config_.speeds && !config_.speeds->uniform()) return &*config_.speeds;
  return nullptr;
}

int ThresholdScheduler::machines() const { return frontier_.size(); }

void ThresholdScheduler::reset() { frontier_.reset(); }

std::string ThresholdScheduler::name() const {
  std::string n = "Threshold(eps=" + std::to_string(config_.eps) +
                  ", m=" + std::to_string(machines()) + ")";
  if (config_.k_override) {
    n += "[k=" + std::to_string(*config_.k_override) + "]";
  }
  if (speed_profile() != nullptr) {
    n.append("[").append(config_.speeds->label()).append("]");
  }
  return n;
}

std::vector<Duration> ThresholdScheduler::loads(TimePoint now) const {
  std::vector<Duration> result(static_cast<std::size_t>(machines()));
  for (int i = 0; i < machines(); ++i) {
    result[static_cast<std::size_t>(i)] = frontier_.load(i, now);
  }
  return result;
}

TimePoint ThresholdScheduler::deadline_threshold(TimePoint now) const {
  // Position h (1-based, decreasing load) carries factor f_h = f[h - k]
  // for h >= k. The FrontierSet keeps the frontiers in that order, so no
  // sort and no load snapshot: scan the sorted frontiers from position k
  // and stop at the first idle machine — every later position has load 0
  // and contributes only `now`, which d_lim already starts from.
  const std::span<const TimePoint> sorted = frontier_.sorted_frontiers();
  const std::span<const double> f = solution_.f;
  const std::size_t first = static_cast<std::size_t>(solution_.k - 1);
  TimePoint d_lim = now;  // with zero loads the threshold is `now`
  for (std::size_t q = 0; q < f.size(); ++q) {
    const TimePoint frontier = sorted[first + q];
    if (frontier <= now) break;
    d_lim = std::max(d_lim, now + (frontier - now) * f[q]);
  }
  return d_lim;
}

Decision ThresholdScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  const TimePoint t = job.release;

  // Decision phase (Lines 4-6): reject iff d_j < d_lim.
  const TimePoint d_lim = deadline_threshold(t);
  if (definitely_less(job.deadline, d_lim)) {
    return Decision::reject();
  }

  // Allocation phase (Lines 9-10): best fit — the most loaded candidate
  // machine that still completes the job on time; start right after its
  // outstanding load. Binary search over the maintained order (feasibility
  // is monotone in the position) instead of a linear scan.
  const int best = frontier_.best_fit(t, job.proc, job.deadline);
  if (best < 0) {
    // Only reachable with heterogeneous speeds, where the identical-machine
    // allocation guarantee below does not hold: the threshold passed but no
    // machine is fast enough given its load. Reject.
    SLACKSCHED_ENSURES(!frontier_.uniform_speeds());
    return Decision::reject();
  }
  // On identical machines the least loaded machine is always a candidate:
  // with l = min load, either l <= eps * p (then l + p <= (1+eps) p
  // <= d - t by the slack condition) or l > eps * p (then l + p
  // < l (1+eps)/eps = l * f_m <= d_lim - t <= d - t). So acceptance always
  // allocates.

  const TimePoint start = t + frontier_.load(best, t);
  frontier_.update(best, start + frontier_.exec_time(best, job.proc));
  return Decision::accept(best, start);
}

bool ThresholdScheduler::restore_frontiers(
    const std::vector<TimePoint>& busy_until) {
  return frontier_.assign(busy_until);
}

ThresholdScheduler make_goldwasser_kerbikov(double eps) {
  return ThresholdScheduler(eps, 1);
}

}  // namespace slacksched
