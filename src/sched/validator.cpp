#include "sched/validator.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

namespace slacksched {

std::string ValidationReport::to_string() const {
  if (ok) return "valid";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

std::string validate_commitment(const Schedule& schedule, const Job& job,
                                const Decision& decision) {
  if (!decision.accepted) return {};
  if (decision.machine < 0 || decision.machine >= schedule.machines()) {
    return job.to_string() + ": machine index " +
           std::to_string(decision.machine) + " out of range";
  }
  if (definitely_less(decision.start, job.release)) {
    return job.to_string() + ": committed start " +
           std::to_string(decision.start) + " precedes release";
  }
  const TimePoint completion =
      decision.start + schedule.exec_time(decision.machine, job.proc);
  if (definitely_greater(completion, job.deadline)) {
    return job.to_string() + ": committed completion " +
           std::to_string(completion) + " misses deadline";
  }
  if (!schedule.interval_free(decision.machine, decision.start, job.proc)) {
    return job.to_string() + ": committed interval overlaps earlier " +
           "commitment on machine " + std::to_string(decision.machine);
  }
  return {};
}

std::string validate_served_commitment(std::span<const TimePoint> busy_until,
                                      const Job& job,
                                      const Decision& decision) {
  if (!decision.accepted) return {};
  if (decision.machine < 0 ||
      static_cast<std::size_t>(decision.machine) >= busy_until.size()) {
    return job.to_string() + ": machine index " +
           std::to_string(decision.machine) + " out of range";
  }
  if (definitely_less(decision.start, job.release)) {
    return job.to_string() + ": committed start " +
           std::to_string(decision.start) + " precedes release";
  }
  const TimePoint completion = decision.start + job.proc;
  if (definitely_greater(completion, job.deadline)) {
    return job.to_string() + ": committed completion " +
           std::to_string(completion) + " misses deadline";
  }
  const TimePoint mark =
      busy_until[static_cast<std::size_t>(decision.machine)];
  if (definitely_less(decision.start, mark)) {
    return job.to_string() + ": committed start " +
           std::to_string(decision.start) +
           " overlaps earlier commitment on machine " +
           std::to_string(decision.machine) + ", busy until " +
           std::to_string(mark);
  }
  return {};
}

std::string validate_commitment(const Schedule& schedule, const Job& job,
                                const Decision& decision, TimePoint decided_at,
                                const CommitmentContract& contract) {
  if (decision.deferred) {
    return job.to_string() + ": deferred decision offered as a commitment";
  }
  const std::string physical = validate_commitment(schedule, job, decision);
  if (!physical.empty()) return physical;
  if (!decision.accepted) return {};  // rejections carry no obligations

  if (definitely_less(decided_at, job.release)) {
    return job.to_string() + ": decided at " + std::to_string(decided_at) +
           " before release (" + to_string(contract.model) + ")";
  }
  const TimePoint latest = contract.commit_deadline(job);
  if (definitely_greater(decided_at, latest)) {
    return job.to_string() + ": decided at " + std::to_string(decided_at) +
           " after the " + to_string(contract.model) +
           " commitment deadline " + std::to_string(latest);
  }
  if (definitely_less(decision.start, decided_at)) {
    return job.to_string() + ": committed start " +
           std::to_string(decision.start) + " precedes the decision time " +
           std::to_string(decided_at);
  }
  if (contract.model == CommitModel::kOnAdmission &&
      definitely_greater(decision.start, decided_at)) {
    return job.to_string() + ": on-admission commitment at " +
           std::to_string(decided_at) + " does not coincide with start " +
           std::to_string(decision.start);
  }
  return {};
}

ValidationReport validate_schedule(const Instance& instance,
                                   const Schedule& schedule) {
  ValidationReport report;

  std::unordered_map<JobId, const Job*> by_id;
  by_id.reserve(instance.size());
  for (const Job& j : instance.jobs()) by_id.emplace(j.id, &j);

  std::set<JobId> placed;
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    const auto& list = schedule.on_machine(machine);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Placement& p = list[i];
      const auto it = by_id.find(p.job.id);
      if (it == by_id.end()) {
        report.fail("placed job id " + std::to_string(p.job.id) +
                    " does not exist in the instance");
        continue;
      }
      if (!(p.job == *it->second)) {
        report.fail("placed job " + p.job.to_string() +
                    " differs from instance job " + it->second->to_string());
      }
      if (!placed.insert(p.job.id).second) {
        report.fail("job id " + std::to_string(p.job.id) +
                    " is placed more than once");
      }
      if (definitely_less(p.start, p.job.release)) {
        report.fail(p.job.to_string() + " starts at " +
                    std::to_string(p.start) + " before its release");
      }
      if (definitely_greater(p.completion(), p.job.deadline)) {
        report.fail(p.job.to_string() + " completes at " +
                    std::to_string(p.completion()) + " after its deadline");
      }
      if (i > 0 && definitely_less(p.start, list[i - 1].completion())) {
        report.fail(p.job.to_string() + " overlaps " +
                    list[i - 1].job.to_string() + " on machine " +
                    std::to_string(machine));
      }
    }
  }
  return report;
}

}  // namespace slacksched
