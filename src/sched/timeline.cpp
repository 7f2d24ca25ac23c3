#include "sched/timeline.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "common/expects.hpp"
#include "common/table.hpp"

namespace slacksched {

std::vector<BusySegment> busy_timeline(const Schedule& schedule) {
  // Sweep over start/completion events.
  std::vector<std::pair<TimePoint, int>> events;
  for (const Placement& p : schedule.all_placements()) {
    events.emplace_back(p.start, +1);
    events.emplace_back(p.completion(), -1);
  }
  if (events.empty()) return {};
  std::sort(events.begin(), events.end());

  std::vector<BusySegment> segments;
  int busy = 0;
  TimePoint prev = events.front().first;
  std::size_t i = 0;
  while (i < events.size()) {
    const TimePoint t = events[i].first;
    if (t > prev) {
      if (segments.empty() || segments.back().busy_machines != busy ||
          !approx_eq(segments.back().end, prev)) {
        segments.push_back({prev, t, busy});
      } else {
        segments.back().end = t;
      }
      prev = t;
    }
    while (i < events.size() && approx_eq(events[i].first, t)) {
      busy += events[i].second;
      ++i;
    }
  }
  // Merge adjacent segments with equal counts (can arise from ties).
  std::vector<BusySegment> merged;
  for (const BusySegment& s : segments) {
    if (s.length() <= kTimeEps) continue;
    if (!merged.empty() && merged.back().busy_machines == s.busy_machines &&
        approx_eq(merged.back().end, s.begin)) {
      merged.back().end = s.end;
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

double utilization(const Schedule& schedule, TimePoint horizon) {
  const TimePoint h = horizon > 0.0 ? horizon : schedule.makespan();
  if (h <= 0.0) return 0.0;
  double busy_machine_time = 0.0;
  for (const Placement& p : schedule.all_placements()) {
    const TimePoint begin = std::min(p.start, h);
    const TimePoint end = std::min(p.completion(), h);
    busy_machine_time += std::max(0.0, end - begin);
  }
  return busy_machine_time / (h * schedule.machines());
}

namespace {

/// The decision log of a clean run in release order. A deferred model logs
/// decisions in resolution order; the stable sort keeps submission order
/// among equal releases.
std::vector<DecisionRecord> decisions_by_release(const RunResult& result) {
  SLACKSCHED_EXPECTS(result.clean());
  std::vector<DecisionRecord> records = result.decisions;
  std::stable_sort(records.begin(), records.end(),
                   [](const DecisionRecord& a, const DecisionRecord& b) {
                     return a.job.release < b.job.release;
                   });
  return records;
}

}  // namespace

BacklogStats backlog(const RunResult& result) {
  // A pending completion; equal times leave in acceptance order.
  struct Completion {
    TimePoint time;
    std::size_t sequence;
    Duration proc;
    bool operator>(const Completion& other) const {
      if (time != other.time) return time > other.time;
      return sequence > other.sequence;
    }
  };
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      running;

  BacklogStats stats;
  double level = 0.0;
  double weighted_sum = 0.0;
  TimePoint last = 0.0;
  TimePoint horizon = result.schedule.makespan();
  auto advance = [&](TimePoint time) {
    weighted_sum += level * std::max(0.0, time - last);
    last = std::max(last, time);
  };
  auto complete_until = [&](TimePoint time) {
    while (!running.empty() && running.top().time <= time + kTimeEps) {
      advance(running.top().time);
      level = std::max(0.0, level - running.top().proc);
      running.pop();
    }
  };

  std::size_t sequence = 0;
  for (const DecisionRecord& record : decisions_by_release(result)) {
    const Job& job = record.job;
    horizon = std::max(horizon, job.release);
    if (!record.decision.accepted) continue;
    complete_until(job.release);
    advance(job.release);
    level += job.proc;
    stats.peak = std::max(stats.peak, level);
    running.push({record.decision.start +
                      result.schedule.exec_time(record.decision.machine,
                                                job.proc),
                  sequence++, job.proc});
  }
  complete_until(kTimeInfinity);
  advance(horizon);
  stats.average = horizon > 0.0 ? weighted_sum / horizon : 0.0;
  return stats;
}

std::vector<AcceptanceWindow> acceptance_rates(const RunResult& result,
                                               Duration window) {
  SLACKSCHED_EXPECTS(window > 0.0);
  std::vector<AcceptanceWindow> windows;
  AcceptanceWindow open{0.0, window, 0.0, 0.0};
  auto roll_to = [&](TimePoint time) {
    while (time > open.end + kTimeEps) {
      windows.push_back(open);
      open = {open.end, open.end + window, 0.0, 0.0};
    }
  };
  TimePoint last_release = 0.0;
  for (const DecisionRecord& record : decisions_by_release(result)) {
    roll_to(record.job.release);
    last_release = record.job.release;
    open.submitted_volume += record.job.proc;
    if (record.decision.accepted) open.accepted_volume += record.job.proc;
  }
  roll_to(std::max(result.schedule.makespan(), last_release) + window);
  // Only a run that ends at time 0 leaves its submissions unflushed.
  if (open.submitted_volume > 0.0) windows.push_back(open);
  return windows;
}

std::vector<CoveredInterval> covered_intervals(const RunResult& result) {
  // Collect rejected windows and merge overlapping ones.
  std::vector<std::pair<TimePoint, TimePoint>> windows;
  for (const DecisionRecord& record : result.decisions) {
    if (!record.decision.accepted) {
      windows.emplace_back(record.job.release, record.job.deadline);
    }
  }
  if (windows.empty()) return {};
  std::sort(windows.begin(), windows.end());

  std::vector<CoveredInterval> intervals;
  for (const auto& [begin, end] : windows) {
    if (!intervals.empty() && begin <= intervals.back().end + kTimeEps) {
      intervals.back().end = std::max(intervals.back().end, end);
    } else {
      CoveredInterval interval;
      interval.begin = begin;
      interval.end = end;
      intervals.push_back(interval);
    }
  }

  // Attribute rejected windows and committed execution to the intervals.
  // The intervals are sorted and disjoint (begins and ends both ascend), so
  // both attributions locate their interval(s) by binary search instead of
  // scanning the whole interval list per record.
  for (const DecisionRecord& record : result.decisions) {
    if (record.decision.accepted) continue;
    // A naive forward scan stops at the first interval containing the
    // window; with ascending ends that is the first interval with
    // deadline <= end + eps, and with ascending begins every earlier
    // interval satisfies the begin condition whenever that one does.
    const auto it = std::partition_point(
        intervals.begin(), intervals.end(), [&](const CoveredInterval& iv) {
          return !(record.job.deadline <= iv.end + kTimeEps);
        });
    if (it != intervals.end() && record.job.release >= it->begin - kTimeEps) {
      ++it->rejected_jobs;
      it->rejected_volume += record.job.proc;
    }
  }
  for (const Placement& p : result.schedule.all_placements()) {
    // Intervals overlapping [start, completion) form a contiguous range:
    // skip those ending at or before the start, stop at the first one
    // beginning at or after the completion.
    const TimePoint completion = p.completion();
    auto it = std::partition_point(
        intervals.begin(), intervals.end(),
        [&](const CoveredInterval& iv) { return !(iv.end > p.start); });
    for (; it != intervals.end() && it->begin < completion; ++it) {
      const TimePoint begin = std::max(p.start, it->begin);
      const TimePoint end = std::min(completion, it->end);
      if (end > begin) it->online_volume += end - begin;
    }
  }
  return intervals;
}

Duration uncovered_time(const RunResult& result, TimePoint horizon) {
  SLACKSCHED_EXPECTS(horizon > 0.0);
  Duration covered = 0.0;
  for (const CoveredInterval& interval : covered_intervals(result)) {
    const TimePoint begin = std::max(0.0, interval.begin);
    const TimePoint end = std::min(horizon, interval.end);
    if (end > begin) covered += end - begin;
  }
  return horizon - covered;
}

CertifiedBound certified_optimum_bound(const RunResult& result,
                                       int machines) {
  SLACKSCHED_EXPECTS(machines >= 1);
  CertifiedBound bound;
  bound.alg_volume = result.metrics.accepted_volume;

  // Any schedule — optimal included — must place each rejected job inside
  // its own [r, d) window, and all such windows lie inside the covered
  // intervals; their total machine-time caps how much extra load an
  // optimum can have found.
  double covered_capacity = 0.0;
  double rejected_volume = 0.0;
  for (const CoveredInterval& interval : covered_intervals(result)) {
    covered_capacity += static_cast<double>(machines) * interval.length();
    rejected_volume += interval.rejected_volume;
  }
  bound.opt_bound =
      bound.alg_volume + std::min(rejected_volume, covered_capacity);
  bound.ratio_bound = bound.alg_volume > 0.0
                          ? bound.opt_bound / bound.alg_volume
                          : std::numeric_limits<double>::infinity();
  return bound;
}

SvgDocument render_timeline_svg(const RunResult& result,
                                const std::string& title) {
  const int machines = result.schedule.machines();
  TimePoint horizon = std::max(1.0, result.schedule.makespan());
  const auto intervals = covered_intervals(result);
  for (const CoveredInterval& interval : intervals) {
    horizon = std::max(horizon, interval.end);
  }

  constexpr double kLeft = 60.0;
  constexpr double kTop = 40.0;
  constexpr double kPlotW = 760.0;
  constexpr double kPlotH = 220.0;
  constexpr double kBandH = 26.0;
  SvgDocument svg(kLeft + kPlotW + 20.0, kTop + kPlotH + kBandH + 60.0);
  if (!title.empty()) svg.text(kLeft, 24.0, title, 14.0);

  const AxisScale x(0.0, horizon, kLeft, kLeft + kPlotW);
  const AxisScale y(0.0, static_cast<double>(machines), kTop + kPlotH, kTop);

  // Frame and machine-count gridlines.
  svg.line(kLeft, kTop + kPlotH, kLeft + kPlotW, kTop + kPlotH);
  svg.line(kLeft, kTop, kLeft, kTop + kPlotH);
  for (int level = 0; level <= machines; ++level) {
    const double py = y(level);
    svg.line(kLeft, py, kLeft + kPlotW, py, "#eeeeee", 1.0, true);
    svg.text(kLeft - 8.0, py + 4.0, std::to_string(level), 10.0, "#111111",
             "end");
  }

  // Busy-machine step function.
  std::vector<std::pair<double, double>> steps;
  steps.emplace_back(x(0.0), y(0.0));
  for (const BusySegment& segment : busy_timeline(result.schedule)) {
    steps.emplace_back(x(segment.begin), steps.back().second);
    steps.emplace_back(x(segment.begin), y(segment.busy_machines));
    steps.emplace_back(x(segment.end), y(segment.busy_machines));
  }
  steps.emplace_back(x(horizon), steps.back().second);
  svg.polyline(steps, default_palette().front(), 2.0);

  // Covered intervals band along the bottom.
  const double band_y = kTop + kPlotH + 12.0;
  svg.text(kLeft - 8.0, band_y + kBandH * 0.7, "covered", 10.0, "#111111",
           "end");
  for (const CoveredInterval& interval : intervals) {
    svg.rect(x(interval.begin), band_y,
             std::max(1.0, x(interval.end) - x(interval.begin)), kBandH,
             "#e6194b", "#990000");
  }

  // Time axis ticks.
  const double axis_y = band_y + kBandH + 16.0;
  for (int tick = 0; tick <= 4; ++tick) {
    const double value = horizon * tick / 4.0;
    svg.text(x(value), axis_y, Table::format(value, 1), 10.0, "#111111",
             "middle");
  }
  return svg;
}

}  // namespace slacksched
