// The job model of the paper (Section 2): a job J_j is the tuple
// (r_j, p_j, d_j) of release date, processing time and deadline, subject to
// the slack condition d_j >= (1 + eps) * p_j + r_j.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "common/time.hpp"

namespace slacksched {

/// Identifier assigned by the instance builder; stable across a run.
using JobId = std::int64_t;

/// One job of the online sequence.
struct Job {
  JobId id = 0;
  TimePoint release = 0.0;   ///< r_j: submission time
  Duration proc = 0.0;       ///< p_j: processing time, > 0
  TimePoint deadline = 0.0;  ///< d_j: absolute deadline

  /// The window length d_j - r_j available to the job.
  [[nodiscard]] Duration window() const { return deadline - release; }

  /// The job's own slack value: (d_j - r_j) / p_j - 1. The instance-wide
  /// slack eps is the minimum of this over all jobs.
  [[nodiscard]] double slack() const { return window() / proc - 1.0; }

  /// Latest time the job may start and still meet its deadline.
  [[nodiscard]] TimePoint latest_start() const { return deadline - proc; }

  /// True iff the job satisfies the slack condition (3) for the given eps,
  /// up to the library-wide time tolerance.
  [[nodiscard]] bool satisfies_slack(double eps) const {
    return approx_ge(deadline, (1.0 + eps) * proc + release);
  }

  /// Structurally valid: positive processing time, deadline after release.
  [[nodiscard]] bool structurally_valid() const {
    return proc > 0.0 && deadline > release && release >= 0.0;
  }

  /// The served instance class at slack `eps`: finite fields, structurally
  /// valid, and the slack condition (3). The service refuses every other
  /// job at ingest (Outcome::kRejectedInvalid), so no scheduler is asked to
  /// decide a job its guarantee does not cover.
  [[nodiscard]] bool servable(double eps) const {
    return std::isfinite(release) && std::isfinite(proc) &&
           std::isfinite(deadline) && structurally_valid() &&
           satisfies_slack(eps);
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "J";
    s += std::to_string(id);
    s += "(r=";
    s += std::to_string(release);
    s += ", p=";
    s += std::to_string(proc);
    s += ", d=";
    s += std::to_string(deadline);
    s += ")";
    return s;
  }

  friend bool operator==(const Job&, const Job&) = default;
};

}  // namespace slacksched
