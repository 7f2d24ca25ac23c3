#include "sched/schedule.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace slacksched {

Schedule::Schedule(int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  per_machine_.resize(static_cast<std::size_t>(machines));
  frontier_.resize(static_cast<std::size_t>(machines), 0.0);
  ids_ascending_.resize(static_cast<std::size_t>(machines), true);
}

Schedule::Schedule(int machines, std::vector<double> speeds)
    : Schedule(machines) {
  if (speeds.empty()) return;
  SLACKSCHED_EXPECTS(static_cast<int>(speeds.size()) == machines);
  bool uniform = true;
  for (const double s : speeds) {
    SLACKSCHED_EXPECTS(s > 0.0);
    if (s != 1.0) uniform = false;
  }
  if (!uniform) speed_ = std::move(speeds);
}

void Schedule::commit(const Job& job, int machine, TimePoint start) {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines());
  SLACKSCHED_EXPECTS(job.proc > 0.0);
  SLACKSCHED_EXPECTS(interval_free(machine, start, job.proc));
  auto& list = per_machine_[static_cast<std::size_t>(machine)];
  Placement p{job, machine, start, exec_time(machine, job.proc)};
  // Insert keeping the list sorted by start time. Almost always appends.
  const auto it = std::upper_bound(
      list.begin(), list.end(), start,
      [](TimePoint s, const Placement& q) { return s < q.start; });
  const auto inserted = list.insert(it, std::move(p));

  // Incremental caches: placements are non-overlapping and sorted by start,
  // so the machine frontier only ever grows to this completion.
  const TimePoint completion = inserted->completion();
  auto& frontier = frontier_[static_cast<std::size_t>(machine)];
  frontier = std::max(frontier, completion);
  makespan_ = std::max(makespan_, completion);
  total_volume_ += job.proc;
  ++job_count_;
  if (ids_ascending_[static_cast<std::size_t>(machine)]) {
    const bool after_prev =
        inserted == list.begin() || std::prev(inserted)->job.id < job.id;
    const bool before_next =
        std::next(inserted) == list.end() || job.id < std::next(inserted)->job.id;
    if (!after_prev || !before_next) {
      ids_ascending_[static_cast<std::size_t>(machine)] = false;
    }
  }
}

bool Schedule::interval_free(int machine, TimePoint start,
                             Duration proc) const {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines());
  const auto& list = per_machine_[static_cast<std::size_t>(machine)];
  const TimePoint end = start + exec_time(machine, proc);
  // Placements are sorted by start and non-overlapping, so completions are
  // sorted too: the only possible conflict is the last placement starting
  // before `end`. Overlap iff the intervals intersect by more than the
  // tolerance.
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [&](const Placement& p) { return definitely_less(p.start, end); });
  if (it == list.begin()) return true;
  return !definitely_less(start, std::prev(it)->completion());
}

TimePoint Schedule::frontier(int machine) const {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines());
  return frontier_[static_cast<std::size_t>(machine)];
}

Duration Schedule::outstanding_load(int machine, TimePoint now) const {
  return std::max(0.0, frontier(machine) - now);
}

const std::vector<Placement>& Schedule::on_machine(int machine) const {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines());
  return per_machine_[static_cast<std::size_t>(machine)];
}

std::vector<Placement> Schedule::all_placements() const {
  std::vector<Placement> out;
  out.reserve(job_count_);
  for (const auto& list : per_machine_)
    out.insert(out.end(), list.begin(), list.end());
  return out;
}

std::optional<Placement> Schedule::find(JobId id) const {
  for (std::size_t m = 0; m < per_machine_.size(); ++m) {
    const auto& list = per_machine_[m];
    if (ids_ascending_[m]) {
      const auto it = std::partition_point(
          list.begin(), list.end(),
          [&](const Placement& p) { return p.job.id < id; });
      if (it != list.end() && it->job.id == id) return *it;
    } else {
      for (const Placement& p : list)
        if (p.job.id == id) return p;
    }
  }
  return std::nullopt;
}

}  // namespace slacksched
