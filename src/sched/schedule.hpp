/// \file
/// Committed non-preemptive schedules: the record of (job, machine, start)
/// placements an algorithm has irrevocably promised. Supports the load
/// queries the Threshold algorithm needs and the overlap/feasibility queries
/// the validator and engine need. Frontier, makespan, volume and job-count
/// queries are O(1): commit() maintains them incrementally instead of
/// recomputing from the placement lists.
///
/// Related machines: a Schedule built with a speed vector records for every
/// placement the execution time p_j / s_i on its machine; occupancy,
/// frontier and makespan queries all use that duration. A speed-less
/// Schedule is the identical-machine model and its arithmetic is untouched
/// (durations are the processing times, no division anywhere).
///
/// Settling (settle_before): a long-running consumer drops the placements
/// no future commitment can overlap, so its memory follows its live
/// commitments rather than its history. Per machine it erases the prefix of
/// placements completing at or before a horizon and remembers the last
/// erased completion; interval_free then refuses any start definitely
/// before that completion. Soundness therefore never depends on the
/// horizon the caller picks: a placement the schedule no longer holds can
/// never be overlapped unnoticed. job_count, total_volume, makespan and
/// frontier keep counting the whole run; on_machine, all_placements, find
/// and validate_schedule see only the placements still held. A schedule
/// that is never settled behaves exactly as one without the feature.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "job/job.hpp"
#include "sched/decision.hpp"

namespace slacksched {

/// One committed placement. `duration` is the execution time the job
/// occupies its machine for — job.proc on identical machines, job.proc/s_i
/// under a speed vector; Schedule::commit fills it in.
struct Placement {
  Job job;
  int machine = 0;
  TimePoint start = 0.0;
  Duration duration = 0.0;

  [[nodiscard]] TimePoint completion() const { return start + duration; }
};

/// A growing, per-machine-ordered non-preemptive schedule.
class Schedule {
 public:
  explicit Schedule(int machines);

  /// Related-machine variant: machine i runs at speed `speeds[i]` > 0. An
  /// empty vector means identical machines and is bit-identical to the
  /// speed-less constructor (all-unit vectors are normalized to empty).
  Schedule(int machines, std::vector<double> speeds);

  [[nodiscard]] int machines() const {
    return static_cast<int>(per_machine_.size());
  }

  /// True iff the schedule models identical machines.
  [[nodiscard]] bool uniform_speeds() const { return speed_.empty(); }

  /// The per-machine speed vector; empty when identical machines.
  [[nodiscard]] const std::vector<double>& speeds() const { return speed_; }

  /// Execution time of a job with processing requirement `proc` on
  /// `machine`: p / s_i, returned as exactly `proc` on identical machines.
  [[nodiscard]] Duration exec_time(int machine, Duration proc) const {
    if (speed_.empty()) return proc;
    return proc / speed_[static_cast<std::size_t>(machine)];
  }

  /// Commits a placement. Requires the machine index to be valid and the
  /// execution interval not to overlap previously committed work on that
  /// machine (checked; throws PreconditionError otherwise).
  void commit(const Job& job, int machine, TimePoint start);

  /// Drops, on every machine, the prefix of placements whose completion is
  /// at or before `horizon` (completions are sorted, because placements
  /// are sorted and never overlap), and records the last dropped
  /// completion as the machine's settled mark. Aggregates are unchanged.
  /// Returns the number of placements still held. One partition_point per
  /// machine; never allocates.
  std::size_t settle_before(TimePoint horizon);

  /// Whether [start, start + exec_time(machine, proc)) is free on the
  /// machine; `proc` is the processing requirement, not the wall time.
  /// False for any start definitely before the machine's settled mark: a
  /// settled schedule cannot tell the dropped past from idle time, so it
  /// refuses it wholesale.
  [[nodiscard]] bool interval_free(int machine, TimePoint start,
                                   Duration proc) const;

  /// Completion time of the last committed job on the machine (0 if none).
  /// O(1): cached by commit().
  [[nodiscard]] TimePoint frontier(int machine) const;

  /// Outstanding load at time `now`: the remaining committed work on the
  /// machine from `now` on, equivalently max(0, frontier - now) when the
  /// machine runs its committed jobs back-to-back (which every algorithm in
  /// this library does). This is the l(m_h) of Algorithm 1.
  [[nodiscard]] Duration outstanding_load(int machine, TimePoint now) const;

  /// Placements still held on one machine, ordered by start time.
  [[nodiscard]] const std::vector<Placement>& on_machine(int machine) const;

  /// All placements still held, ordered by (machine, start).
  [[nodiscard]] std::vector<Placement> all_placements() const;

  /// Total committed processing volume (the objective value), settled
  /// placements included. O(1).
  [[nodiscard]] double total_volume() const { return total_volume_; }

  /// Number of committed jobs, settled placements included. O(1).
  [[nodiscard]] std::size_t job_count() const { return job_count_; }

  /// Latest completion over all machines (0 when empty), settled
  /// placements included. O(1).
  [[nodiscard]] TimePoint makespan() const { return makespan_; }

  /// Looks up the placement of a job by id, if still held. Uses a
  /// per-machine binary search when that machine's ids happen to ascend
  /// with start time (true for every arrival-ordered engine run); falls
  /// back to a linear sweep otherwise.
  [[nodiscard]] std::optional<Placement> find(JobId id) const;

 private:
  /// Per-machine speeds; empty means identical machines (all s_i = 1).
  std::vector<double> speed_;
  std::vector<std::vector<Placement>> per_machine_;
  /// Cached completion time of the last placement per machine.
  std::vector<TimePoint> frontier_;
  /// Per machine, the last completion settle_before dropped; -infinity
  /// while nothing was dropped, which keeps interval_free's check inert.
  std::vector<TimePoint> settled_until_;
  /// True while the machine's placement list has strictly ascending job
  /// ids in list (= start) order, enabling binary-search find().
  std::vector<bool> ids_ascending_;
  TimePoint makespan_ = 0.0;
  double total_volume_ = 0.0;
  std::size_t job_count_ = 0;
};

}  // namespace slacksched
