#include "delayed_commit_reference.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/expects.hpp"

namespace slacksched {

int pick_startable(const std::vector<Job>& pending, TimePoint now,
                   QueuePolicy policy) {
  int best = -1;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const Job& j = pending[i];
    if (definitely_less(j.latest_start(), now)) continue;  // cannot start
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Job& b = pending[static_cast<std::size_t>(best)];
    bool better = false;
    switch (policy) {
      case QueuePolicy::kEdf:
        better = j.deadline < b.deadline;
        break;
      case QueuePolicy::kLargestFirst:
        better = j.proc > b.proc;
        break;
      case QueuePolicy::kLeastSlackFirst:
        better = j.latest_start() < b.latest_start();
        break;
    }
    if (better) best = static_cast<int>(i);
  }
  return best;
}

DelayedCommitResult run_delayed_commit(const Instance& instance, int machines,
                                       QueuePolicy policy) {
  SLACKSCHED_EXPECTS(machines >= 1);
  DelayedCommitResult result{Schedule(machines), RunMetrics{}};
  result.metrics.submitted = instance.size();

  std::vector<TimePoint> free(static_cast<std::size_t>(machines), 0.0);
  std::vector<Job> pending;
  std::size_t next = 0;
  const auto& jobs = instance.jobs();
  TimePoint now = 0.0;
  constexpr TimePoint kInf = std::numeric_limits<double>::infinity();

  while (next < jobs.size() || !pending.empty()) {
    // Admit arrivals that have been released by `now`.
    while (next < jobs.size() && approx_le(jobs[next].release, now)) {
      pending.push_back(jobs[next++]);
    }

    // Drop jobs whose latest start has passed: with commitment on
    // admission this is the moment the scheduler effectively rejects.
    std::erase_if(pending, [&](const Job& j) {
      if (definitely_less(j.latest_start(), now)) {
        ++result.metrics.rejected;
        result.metrics.rejected_volume += j.proc;
        return true;
      }
      return false;
    });

    // Start work on every idle machine.
    for (int machine = 0; machine < machines && !pending.empty(); ++machine) {
      while (approx_le(free[static_cast<std::size_t>(machine)], now)) {
        const int idx = pick_startable(pending, now, policy);
        if (idx < 0) break;
        const Job job = pending[static_cast<std::size_t>(idx)];
        pending.erase(pending.begin() + idx);
        result.schedule.commit(job, machine, now);
        free[static_cast<std::size_t>(machine)] = now + job.proc;
        ++result.metrics.accepted;
        result.metrics.accepted_volume += job.proc;
      }
      if (pending.empty()) break;
    }

    // Advance to the next event: an arrival or a machine becoming free.
    TimePoint next_t = kInf;
    if (next < jobs.size()) next_t = std::min(next_t, jobs[next].release);
    if (!pending.empty()) {
      for (TimePoint f : free) {
        if (definitely_greater(f, now)) next_t = std::min(next_t, f);
      }
    }
    if (next_t == kInf) break;
    now = next_t;
  }

  result.metrics.makespan = result.schedule.makespan();
  return result;
}

}  // namespace slacksched
