#include "offline/feasibility.hpp"

#include "common/expects.hpp"
#include "common/time.hpp"
#include "offline/maxflow.hpp"

namespace slacksched {

namespace {

/// Whether the job -> interval network over the event points saturates
/// every job's demand.
bool flow_feasible(const std::vector<FlowJob>& jobs,
                   std::vector<TimePoint>& events, int machines) {
  make_event_grid(events);
  if (events.size() < 2) return true;  // zero remaining work
  double demand = 0.0;
  for (const FlowJob& job : jobs) demand += job.demand;
  IntervalFlow network(jobs, events, machines);
  return network.max_flow() >= demand - 1e-7 * (1.0 + demand);
}

}  // namespace

bool preemptive_migration_feasible(const std::vector<RemainingJob>& fragments,
                                   int machines, TimePoint now) {
  SLACKSCHED_EXPECTS(machines >= 1);
  if (fragments.empty()) return true;
  std::vector<TimePoint> events{now};
  std::vector<FlowJob> jobs;
  jobs.reserve(fragments.size());
  for (const RemainingJob& f : fragments) {
    SLACKSCHED_EXPECTS(f.remaining >= 0.0);
    if (definitely_less(f.deadline, now + f.remaining)) return false;
    events.push_back(f.deadline);
    jobs.push_back({f.remaining, now, f.deadline});
  }
  return flow_feasible(jobs, events, machines);
}

bool preemptive_migration_feasible_jobs(const std::vector<Job>& jobs,
                                        int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  if (jobs.empty()) return true;
  std::vector<FlowJob> flow_jobs;
  std::vector<TimePoint> events;
  flow_jobs.reserve(jobs.size());
  for (const Job& j : jobs) {
    flow_jobs.push_back({j.proc, j.release, j.deadline});
    events.push_back(j.release);
    events.push_back(j.deadline);
  }
  return flow_feasible(flow_jobs, events, machines);
}

}  // namespace slacksched
