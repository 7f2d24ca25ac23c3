// Timeline analysis of committed schedules and decision logs.
//
// Operationalizes the interval machinery of the paper's Section 4 proof:
//   * busy-machine counts over time (the "monotony" structure of
//     Definition 4),
//   * machine utilization, SLA backlog and windowed acceptance rates —
//     the time-resolved statistics a provider's dashboard charts,
//     read off the engine's own RunResult,
//   * covered/uncovered intervals (Definitions 1 and 2): an interval is
//     covered if it intersects the [r_j, d_j) window of some rejected job
//     — only covered time can witness lost load, so per-interval analysis
//     of a run localizes exactly where an admission policy paid.
//   * the per-interval performance ratio surrogate of Definition 3 with
//     P^- lower-bounded by the committed work inside the interval.
#pragma once

#include <string>
#include <vector>

#include "common/svg.hpp"
#include "sched/engine.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// A maximal interval with a constant number of busy machines.
struct BusySegment {
  TimePoint begin = 0.0;
  TimePoint end = 0.0;
  int busy_machines = 0;

  [[nodiscard]] Duration length() const { return end - begin; }
};

/// Step function of busy-machine counts over [0, makespan).
[[nodiscard]] std::vector<BusySegment> busy_timeline(
    const Schedule& schedule);

/// Fraction of machine-time busy in [0, horizon). horizon <= 0 means the
/// schedule makespan.
[[nodiscard]] double utilization(const Schedule& schedule,
                                 TimePoint horizon = -1.0);

/// Committed-but-unfinished work over a run: the exposure an accepted SLA
/// represents. Each accepted job counts from its release to the completion
/// of its placement (p_j / s_i on related machines); at equal times
/// (within kTimeEps) completions leave before acceptances arrive.
struct BacklogStats {
  double peak = 0.0;
  /// Time-weighted mean over [0, max(makespan, last release)]. The
  /// backlog is a step function updated at those events; the continuous
  /// drain of running work is not interpolated.
  double average = 0.0;
};

/// Backlog of a clean run; reads its decision log, so the run must have
/// recorded decisions (RunOptions::record_decisions, the default).
[[nodiscard]] BacklogStats backlog(const RunResult& result);

/// One fixed-width window of a run's submissions, keyed by release time:
/// the window (begin, end] holds every job released in it (the first
/// window also holds time 0), and ends advance by repeated addition of the
/// width.
struct AcceptanceWindow {
  TimePoint begin = 0.0;
  TimePoint end = 0.0;
  double submitted_volume = 0.0;
  double accepted_volume = 0.0;

  /// Accepted / submitted volume; 1 for a window without submissions.
  [[nodiscard]] double rate() const {
    return submitted_volume > 0.0 ? accepted_volume / submitted_volume : 1.0;
  }
};

/// The windowed acceptance series of a clean run, in time order, covering
/// [0, max(makespan, last release) + window). Reads the decision log, like
/// backlog(). Requires window > 0.
[[nodiscard]] std::vector<AcceptanceWindow> acceptance_rates(
    const RunResult& result, Duration window);

/// A covered interval of a run (Definitions 1-2): a maximal union of
/// rejected-job windows, carrying the committed work inside it.
struct CoveredInterval {
  TimePoint begin = 0.0;
  TimePoint end = 0.0;
  std::size_t rejected_jobs = 0;  ///< rejected windows intersecting it
  double rejected_volume = 0.0;
  double online_volume = 0.0;  ///< committed work executed inside it

  [[nodiscard]] Duration length() const { return end - begin; }

  /// Definition 3's ratio with P^-(interval) lower-bounded by the online
  /// volume itself: (m * |I| - online) / online + 1 = m * |I| / online.
  /// An upper bound on how badly the run could trail OPT inside I.
  [[nodiscard]] double performance_ratio_bound(int machines) const {
    if (online_volume <= 0.0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(machines) * length() / online_volume;
  }
};

/// Computes the covered intervals of a finished run: merges the
/// [r_j, d_j) windows of all rejected jobs into maximal intervals and
/// accumulates the committed execution inside each.
[[nodiscard]] std::vector<CoveredInterval> covered_intervals(
    const RunResult& result);

/// Total uncovered time inside [0, horizon): time where no rejected job
/// could have run — the run is trivially optimal there.
[[nodiscard]] Duration uncovered_time(const RunResult& result,
                                      TimePoint horizon);

/// A per-run certified bound on the offline optimum, computable without
/// any offline solver: rejected work can only run inside its own window,
/// so OPT <= ALG + min(rejected volume, sum over covered intervals of
/// m * |I|). Valid for any run of any algorithm; tests cross-check it
/// against the exact optimum.
struct CertifiedBound {
  double alg_volume = 0.0;
  double opt_bound = 0.0;
  /// opt_bound / alg_volume (infinity when nothing was accepted).
  double ratio_bound = 0.0;
};

[[nodiscard]] CertifiedBound certified_optimum_bound(const RunResult& result,
                                                     int machines);

/// SVG rendering of a run's timeline: the busy-machine step function on
/// top, covered intervals (where rejected demand existed) shaded along the
/// bottom. The visual counterpart of the proof's interval decomposition.
[[nodiscard]] SvgDocument render_timeline_svg(const RunResult& result,
                                              const std::string& title);

}  // namespace slacksched
