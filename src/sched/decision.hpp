/// \file
/// The admission decision type. Upon a job's submission a commit-on-arrival
/// scheduler either rejects it or irrevocably fixes machine and start time
/// (the temporal and spatial commitment of the non-preemptive model). A
/// deferred-commitment scheduler (models/delta_commit.hpp) may instead
/// answer defer(): the job is held tentative and its binding accept/reject
/// arrives later through OnlineScheduler::advance_to.
#pragma once

#include <string>

#include "common/time.hpp"
#include "job/job.hpp"

namespace slacksched {

/// An admission decision: reject, accept(machine, start), or — only from
/// schedulers whose commitment model allows deferral — "not decided yet".
struct Decision {
  bool accepted = false;
  int machine = -1;        ///< 0-based machine index when accepted
  TimePoint start = 0.0;   ///< committed start time when accepted
  /// True iff the scheduler has not decided yet (deferred-commitment
  /// models only); accepted/machine/start are meaningless while set.
  bool deferred = false;

  [[nodiscard]] static Decision reject() { return Decision{}; }

  [[nodiscard]] static Decision accept(int machine, TimePoint start) {
    Decision d;
    d.accepted = true;
    d.machine = machine;
    d.start = start;
    return d;
  }

  [[nodiscard]] static Decision defer() {
    Decision d;
    d.deferred = true;
    return d;
  }

  [[nodiscard]] std::string to_string() const {
    if (deferred) return "defer";
    if (!accepted) return "reject";
    return "accept(machine=" + std::to_string(machine) +
           ", start=" + std::to_string(start) + ")";
  }

  friend bool operator==(const Decision&, const Decision&) = default;
};

/// Per-job record of what the algorithm decided.
struct DecisionRecord {
  Job job;
  Decision decision;
};

}  // namespace slacksched
