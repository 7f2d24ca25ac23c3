#include "offline/upper_bound.hpp"

#include <vector>

#include "common/expects.hpp"
#include "offline/maxflow.hpp"

namespace slacksched {

double preemptive_fractional_upper_bound(const Instance& instance,
                                         int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  if (instance.empty()) return 0.0;

  // Event points: all release dates and deadlines.
  std::vector<FlowJob> jobs;
  std::vector<TimePoint> events;
  jobs.reserve(instance.size());
  events.reserve(instance.size() * 2);
  for (const Job& j : instance.jobs()) {
    jobs.push_back({j.proc, j.release, j.deadline});
    events.push_back(j.release);
    events.push_back(j.deadline);
  }
  make_event_grid(events);
  return IntervalFlow(jobs, events, machines).max_flow();
}

}  // namespace slacksched
