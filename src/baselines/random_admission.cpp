#include "baselines/random_admission.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace slacksched {

RandomAdmissionScheduler::RandomAdmissionScheduler(int machines, double p,
                                                   std::uint64_t seed)
    : machines_(machines),
      p_(p),
      seed_(seed),
      rng_(seed),
      frontier_(static_cast<std::size_t>(machines), 0.0) {
  SLACKSCHED_EXPECTS(machines >= 1);
  SLACKSCHED_EXPECTS(p >= 0.0 && p <= 1.0);
}

int RandomAdmissionScheduler::machines() const { return machines_; }

void RandomAdmissionScheduler::reset() {
  rng_ = Rng(seed_);
  std::fill(frontier_.begin(), frontier_.end(), 0.0);
}

std::string RandomAdmissionScheduler::name() const {
  return "RandomAdmission(p=" + std::to_string(p_) +
         ", m=" + std::to_string(machines_) + ")";
}

Decision RandomAdmissionScheduler::on_arrival(const Job& job) {
  SLACKSCHED_EXPECTS(job.structurally_valid());
  const TimePoint t = job.release;

  int chosen = -1;
  Duration chosen_load = std::numeric_limits<double>::infinity();
  for (int i = 0; i < machines_; ++i) {
    const TimePoint frontier = frontier_[static_cast<std::size_t>(i)];
    const Duration load = std::max(0.0, frontier - t);
    if (!approx_le(start_after(frontier, t) + job.proc, job.deadline)) {
      continue;
    }
    if (load < chosen_load) {
      chosen_load = load;
      chosen = i;
    }
  }
  if (chosen < 0) return Decision::reject();
  if (!rng_.bernoulli(p_)) return Decision::reject();

  const TimePoint start =
      start_after(frontier_[static_cast<std::size_t>(chosen)], t);
  frontier_[static_cast<std::size_t>(chosen)] = start + job.proc;
  return Decision::accept(chosen, start);
}

}  // namespace slacksched
