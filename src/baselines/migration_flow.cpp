#include "baselines/migration_flow.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "offline/feasibility.hpp"
#include "offline/maxflow.hpp"

namespace slacksched {

bool MigrationResult::all_on_time() const {
  return std::all_of(completions.begin(), completions.end(),
                     [](const MigrationCompletion& c) {
                       return approx_le(c.completion, c.deadline);
                     });
}

namespace {

/// Executes the fluid schedule from `now` to `until`: solves the flow
/// witness over the fragments' deadline grid and drains each fragment by
/// its flow into the intervals before `until`. Completions (remaining
/// hitting zero) are recorded at the end of the draining interval.
void fluid_execute(std::vector<RemainingJob>& fragments, int machines,
                   TimePoint now, TimePoint until,
                   std::vector<MigrationCompletion>& completions,
                   TimePoint& makespan) {
  if (fragments.empty() || until <= now + kTimeEps) return;

  // Event grid: now, until, and every fragment deadline in (now, until];
  // intervals past `until` are also modelled so the witness proves the
  // remainder feasible.
  std::vector<TimePoint> events{now, until};
  std::vector<FlowJob> jobs;
  jobs.reserve(fragments.size());
  double demand = 0.0;
  for (const RemainingJob& f : fragments) {
    if (f.deadline > now + kTimeEps) events.push_back(f.deadline);
    jobs.push_back({f.remaining, now, f.deadline});
    demand += f.remaining;
  }
  make_event_grid(events);
  IntervalFlow network(jobs, events, machines);
  const double routed = network.max_flow();
  // The admitted set is feasible by the admission invariant.
  SLACKSCHED_ENSURES(routed >= demand - 1e-6 * (1.0 + demand));

  // Drain each fragment by its execution before `until`.
  std::vector<double> executed(fragments.size(), 0.0);
  std::vector<TimePoint> last_active(fragments.size(), now);
  for (const IntervalFlow::JobEdge& edge : network.job_edges()) {
    if (events[edge.interval + 1] > until + kTimeEps) continue;
    const double amount = network.flow_on(edge);
    if (amount > kFlowEps) {
      executed[edge.job] += amount;
      last_active[edge.job] =
          std::max(last_active[edge.job], events[edge.interval + 1]);
    }
  }
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    fragments[i].remaining =
        std::max(0.0, fragments[i].remaining - executed[i]);
    if (fragments[i].remaining <= 1e-7) {
      completions.push_back(
          {fragments[i].id, last_active[i], fragments[i].deadline});
      makespan = std::max(makespan, last_active[i]);
      fragments[i].remaining = -1.0;  // mark for removal
    }
  }
  std::erase_if(fragments,
                [](const RemainingJob& f) { return f.remaining < 0.0; });
}

}  // namespace

MigrationResult run_migration_admission(const Instance& instance,
                                        int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  MigrationResult result;
  result.metrics.submitted = instance.size();

  std::vector<RemainingJob> fragments;
  TimePoint now = 0.0;
  TimePoint makespan = 0.0;

  for (const Job& job : instance.jobs()) {
    fluid_execute(fragments, machines, now, job.release, result.completions,
                  makespan);
    now = std::max(now, job.release);

    std::vector<RemainingJob> trial = fragments;
    trial.push_back({job.id, job.proc, job.deadline});
    if (preemptive_migration_feasible(trial, machines, now)) {
      fragments = std::move(trial);
      ++result.metrics.accepted;
      result.metrics.accepted_volume += job.proc;
    } else {
      ++result.metrics.rejected;
      result.metrics.rejected_volume += job.proc;
    }
  }

  // Drain everything that remains.
  TimePoint horizon = now;
  for (const RemainingJob& f : fragments) {
    horizon = std::max(horizon, f.deadline);
  }
  fluid_execute(fragments, machines, now, horizon + 1.0, result.completions,
                makespan);
  SLACKSCHED_ENSURES(fragments.empty());

  result.metrics.makespan = makespan;
  return result;
}

}  // namespace slacksched
