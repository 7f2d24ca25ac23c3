#include "sched/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/expects.hpp"
#include "core/threshold.hpp"
#include "models/delta_commit.hpp"
#include "models/speed_profile.hpp"
#include "offline/exact.hpp"
#include "workload/generators.hpp"

namespace slacksched {
namespace {

Job make_job(JobId id, TimePoint r, Duration p, TimePoint d) {
  Job j;
  j.id = id;
  j.release = r;
  j.proc = p;
  j.deadline = d;
  return j;
}

Instance tiny_instance() {
  return Instance({make_job(1, 0.0, 2.0, 10.0), make_job(2, 1.0, 1.0, 3.0),
                   make_job(3, 5.0, 2.0, 8.0)});
}

int peak_running(const Schedule& schedule) {
  int peak = 0;
  for (const BusySegment& segment : busy_timeline(schedule)) {
    peak = std::max(peak, segment.busy_machines);
  }
  return peak;
}

/// Machine-time the schedule keeps busy, integrated off busy_timeline.
double busy_machine_time(const Schedule& schedule) {
  double busy = 0.0;
  for (const BusySegment& segment : busy_timeline(schedule)) {
    busy += segment.length() * segment.busy_machines;
  }
  return busy;
}

double accepted_in_windows(const std::vector<AcceptanceWindow>& windows) {
  double total = 0.0;
  for (const AcceptanceWindow& w : windows) total += w.accepted_volume;
  return total;
}

double submitted_in_windows(const std::vector<AcceptanceWindow>& windows) {
  double total = 0.0;
  for (const AcceptanceWindow& w : windows) total += w.submitted_volume;
  return total;
}

void expect_relative_near(double actual, double expected, double tolerance) {
  EXPECT_NEAR(actual, expected, tolerance * std::max(1.0, std::abs(expected)));
}

TEST(BusyTimeline, EmptyScheduleIsEmpty) {
  EXPECT_TRUE(busy_timeline(Schedule(2)).empty());
}

TEST(BusyTimeline, SingleJob) {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 2.0, 10.0), 0, 1.0);
  const auto segments = busy_timeline(s);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_DOUBLE_EQ(segments[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(segments[0].end, 3.0);
  EXPECT_EQ(segments[0].busy_machines, 1);
}

TEST(BusyTimeline, OverlapCountsBothMachines) {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 4.0, 10.0), 0, 0.0);  // [0, 4)
  s.commit(make_job(2, 0.0, 2.0, 10.0), 1, 1.0);  // [1, 3)
  const auto segments = busy_timeline(s);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].busy_machines, 1);  // [0, 1)
  EXPECT_EQ(segments[1].busy_machines, 2);  // [1, 3)
  EXPECT_EQ(segments[2].busy_machines, 1);  // [3, 4)
  EXPECT_DOUBLE_EQ(segments[1].length(), 2.0);
}

TEST(BusyTimeline, GapsProduceZeroSegments) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 1.0, 10.0), 0, 0.0);  // [0, 1)
  s.commit(make_job(2, 0.0, 1.0, 10.0), 0, 3.0);  // [3, 4)
  const auto segments = busy_timeline(s);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[1].busy_machines, 0);
  EXPECT_DOUBLE_EQ(segments[1].length(), 2.0);
}

TEST(BusyTimeline, MergesBackToBackJobs) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 1.0, 10.0), 0, 0.0);
  s.commit(make_job(2, 0.0, 2.0, 10.0), 0, 1.0);
  const auto segments = busy_timeline(s);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_DOUBLE_EQ(segments[0].length(), 3.0);
}

TEST(Utilization, FullSingleMachine) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 5.0, 10.0), 0, 0.0);
  EXPECT_DOUBLE_EQ(utilization(s), 1.0);
}

TEST(Utilization, HalfOnTwoMachines) {
  Schedule s(2);
  s.commit(make_job(1, 0.0, 5.0, 10.0), 0, 0.0);
  EXPECT_DOUBLE_EQ(utilization(s), 0.5);
}

TEST(Utilization, RespectsExplicitHorizon) {
  Schedule s(1);
  s.commit(make_job(1, 0.0, 5.0, 10.0), 0, 0.0);
  EXPECT_DOUBLE_EQ(utilization(s, 10.0), 0.5);
}

TEST(Utilization, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(utilization(Schedule(3)), 0.0);
}

TEST(CoveredIntervals, NoRejectionsMeansNoCoveredTime) {
  WorkloadConfig config;
  config.n = 20;
  config.eps = 1.0;
  config.arrival_rate = 0.01;  // no contention: everything accepted
  config.size_max = 2.0;
  const Instance inst = generate_workload(config);
  GreedyScheduler alg(4);
  const RunResult result = run_online(alg, inst);
  ASSERT_EQ(result.metrics.rejected, 0u);
  EXPECT_TRUE(covered_intervals(result).empty());
  EXPECT_DOUBLE_EQ(uncovered_time(result, 100.0), 100.0);
}

TEST(CoveredIntervals, MergesOverlappingRejectedWindows) {
  // One machine saturated by an accepted job; two overlapping rejections.
  const Instance inst({make_job(1, 0.0, 10.0, 15.0),
                       make_job(2, 1.0, 5.0, 7.0),    // rejected [1, 7)
                       make_job(3, 5.0, 5.0, 11.0)});  // rejected [5, 11)
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  ASSERT_EQ(result.metrics.rejected, 2u);
  const auto intervals = covered_intervals(result);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(intervals[0].end, 11.0);
  EXPECT_EQ(intervals[0].rejected_jobs, 2u);
  EXPECT_DOUBLE_EQ(intervals[0].rejected_volume, 10.0);
  // Online work inside [1, 11): the accepted job runs [0, 10) -> 9 units.
  EXPECT_DOUBLE_EQ(intervals[0].online_volume, 9.0);
}

TEST(CoveredIntervals, SeparatesDisjointWindows) {
  const Instance inst({make_job(1, 0.0, 4.0, 6.0),
                       make_job(2, 1.0, 4.0, 5.0),      // rejected [1, 5)
                       make_job(3, 20.0, 4.0, 24.0),
                       make_job(4, 21.0, 4.0, 25.0)});  // rejected [21, 25)
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  const auto intervals = covered_intervals(result);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(intervals[1].begin, 21.0);
}

TEST(CoveredIntervals, PerformanceRatioBound) {
  CoveredInterval interval;
  interval.begin = 0.0;
  interval.end = 10.0;
  interval.online_volume = 5.0;
  EXPECT_DOUBLE_EQ(interval.performance_ratio_bound(2), 4.0);
  interval.online_volume = 0.0;
  EXPECT_TRUE(std::isinf(interval.performance_ratio_bound(2)));
}

TEST(CoveredIntervals, ThresholdRatioBoundsStayNearTheGuarantee) {
  // On a saturated workload, per-interval ratio bounds for Algorithm 1
  // should stay in the vicinity of the proven guarantee (they are crude
  // upper bounds, so allow generous headroom, but they must not explode).
  WorkloadConfig config = scenario("overload", 0.2, 5);
  config.n = 500;
  const Instance inst = generate_workload(config);
  ThresholdScheduler alg(0.2, 2);
  const RunResult result = run_online(alg, inst);
  const auto intervals = covered_intervals(result);
  ASSERT_FALSE(intervals.empty());
  for (const CoveredInterval& interval : intervals) {
    if (interval.length() < 1.0) continue;  // tiny intervals are noisy
    EXPECT_LT(interval.performance_ratio_bound(2),
              5.0 * alg.solution().theorem2_bound());
  }
}

TEST(CertifiedBound, ZeroRejectionsMeansRatioOne) {
  const Instance inst({make_job(1, 0.0, 2.0, 10.0)});
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  const CertifiedBound bound = certified_optimum_bound(result, 1);
  EXPECT_DOUBLE_EQ(bound.opt_bound, bound.alg_volume);
  EXPECT_DOUBLE_EQ(bound.ratio_bound, 1.0);
}

TEST(CertifiedBound, CapsByRejectedVolume) {
  // One tiny rejection inside a huge covered window: the bound adds only
  // the rejected volume, not the window capacity.
  const Instance inst({make_job(1, 0.0, 10.0, 15.0),
                       make_job(2, 1.0, 0.5, 14.0)});  // rejected? No: fits
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  // Both accepted here; craft a rejection instead.
  const Instance inst2({make_job(1, 0.0, 10.0, 10.0),
                        make_job(2, 1.0, 0.5, 1.6)});  // rejected, vol 0.5
  const RunResult result2 = run_online(alg, inst2);
  ASSERT_EQ(result2.metrics.rejected, 1u);
  const CertifiedBound bound = certified_optimum_bound(result2, 1);
  EXPECT_NEAR(bound.opt_bound, result2.metrics.accepted_volume + 0.5, 1e-9);
  (void)result;
}

TEST(CertifiedBound, DominatesTheExactOptimum) {
  // The certificate must upper-bound the true optimum on random instances.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    WorkloadConfig config;
    config.n = 10;
    config.eps = 0.1;
    config.arrival_rate = 2.0;
    config.size_min = 1.0;
    config.size_max = 6.0;
    config.slack = SlackModel::kTight;
    config.seed = seed;
    const Instance inst = generate_workload(config);
    for (int m : {1, 2}) {
      ThresholdScheduler alg(0.1, m);
      const RunResult result = run_online(alg, inst);
      const CertifiedBound bound = certified_optimum_bound(result, m);
      const double opt = exact_optimal_load(inst, m).value;
      EXPECT_GE(bound.opt_bound, opt - 1e-9)
          << "seed=" << seed << " m=" << m;
      EXPECT_GE(bound.ratio_bound, 1.0 - 1e-12);
    }
  }
}

TEST(CertifiedBound, InfiniteWhenNothingAccepted) {
  const Instance inst({make_job(1, 0.0, 2.0, 2.0), make_job(2, 0.0, 2.0, 2.0)});
  GreedyScheduler alg(1);
  RunResult result = run_online(alg, inst);
  // Force an empty schedule by dropping the acceptance (simulate a
  // scheduler that rejected everything).
  RunResult empty{Schedule(1), RunMetrics{}, result.decisions, {}};
  for (auto& record : empty.decisions) record.decision = Decision::reject();
  const CertifiedBound bound = certified_optimum_bound(empty, 1);
  EXPECT_TRUE(std::isinf(bound.ratio_bound));
}

TEST(TimelineSvg, RendersStepFunctionAndCoveredBand) {
  const Instance inst({make_job(1, 0.0, 10.0, 15.0),
                       make_job(2, 1.0, 5.0, 7.0)});  // job 2 rejected
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  const SvgDocument svg = render_timeline_svg(result, "timeline-test");
  const std::string markup = svg.str();
  EXPECT_NE(markup.find("timeline-test"), std::string::npos);
  EXPECT_NE(markup.find("<polyline"), std::string::npos);
  EXPECT_NE(markup.find("#e6194b"), std::string::npos);  // covered band
  EXPECT_NE(markup.find(">covered</text>"), std::string::npos);
}

TEST(TimelineSvg, EmptyRunStillRenders) {
  RunResult result{Schedule(2), RunMetrics{}, {}, {}};
  const SvgDocument svg = render_timeline_svg(result, "");
  EXPECT_NE(svg.str().find("<svg"), std::string::npos);
}

TEST(UncoveredTime, RequiresPositiveHorizon) {
  RunResult result{Schedule(1), RunMetrics{}, {}, {}};
  EXPECT_THROW((void)uncovered_time(result, 0.0), PreconditionError);
}

// ---------- dashboard statistics: golden pin ----------

/// The dashboard statistics of examples/live_dashboard's default run
/// (cloud-burst, eps 0.1, m = 4, 1,500 jobs, seed 11, window 25), as the
/// retired event simulator's observers computed them. Peaks and window
/// rates are exact; the time-weighted averages may differ from the
/// observers' only in summation order.
struct DashboardGolden {
  int peak_running;
  double peak_backlog;
  double average_utilization;
  double average_backlog;
  std::vector<double> rates;
};

void expect_dashboard_matches(OnlineScheduler& scheduler,
                              const DashboardGolden& golden) {
  WorkloadConfig config = scenario("cloud-burst", 0.1, 11);
  config.n = 1500;
  const Instance inst = generate_workload(config);
  const RunResult result = run_online(scheduler, inst);
  ASSERT_TRUE(result.clean()) << result.commitment_violation;

  EXPECT_EQ(peak_running(result.schedule), golden.peak_running);
  const BacklogStats stats = backlog(result);
  EXPECT_EQ(stats.peak, golden.peak_backlog);
  expect_relative_near(utilization(result.schedule, result.metrics.makespan),
                       golden.average_utilization, 1e-9);
  expect_relative_near(stats.average, golden.average_backlog, 1e-9);
  const auto windows = acceptance_rates(result, 25.0);
  ASSERT_EQ(windows.size(), golden.rates.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].rate(), golden.rates[i]) << "window " << i;
  }
}

TEST(DashboardGolden, ThresholdMatchesTheRetiredObservers) {
  ThresholdScheduler alg(0.1, 4);
  expect_dashboard_matches(
      alg,
      {3, 0x1.47157949d7786p+6, 0.49581302503121827, 32.90500616511747,
       {0x1.8d65124138c3ep-1, 0x1.68ad69a356fbfp-2, 0x1.3127579e83dcfp-1,
        0x1.7390fb6df958ep-2, 0x1.221acf03075acp-1, 0x1.4df9d66c170b6p-1,
        0x1.d84ad22e5b33bp-3, 0x1.df014a0aa608cp-2, 0x1.20860c7ab6587p-1,
        0x1.6c01c73b14b6ep-2, 0x1.43c9491881b8p-2, 0x1.078c8004a7151p-1,
        0x1.ccba7c8e99eb2p-3, 0x1.0b40fa75f7b89p-1, 0x1.26611fc48193dp-2,
        0x1.95f76dc741156p-2, 0x1.08dea5148c9dep-1, 0x1.039bd892b783ep-1,
        0x0p+0, 0x1.179efca0d9a92p-1, 0x1.20fd7759fbd3ap-2,
        0x1.decd19ed67a24p-3, 0x1.2fa9cd0dafccap-1, 0x1.15cd30ca0e396p-1,
        0x1p+0}});
}

TEST(DashboardGolden, GreedyMatchesTheRetiredObservers) {
  GreedyScheduler alg(4);
  expect_dashboard_matches(
      alg,
      {4, 0x1.92b97684e3b64p+6, 0.7999571200896477, 38.880008743455136,
       {0x1.f05e63ec5544dp-1, 0x1.62b54a928536fp-1, 0x1.8d378c55dac14p-1,
        0x1.6a7d63ab4a5f3p-1, 0x1.bb625fa9eeb6cp-1, 0x1.b1f45e3b3c654p-1,
        0x1.671963be7552bp-1, 0x1.1dd32a26242c6p-1, 0x1.b1bb12a5f08fap-1,
        0x1.53ef47d78220ap-1, 0x1.8e1b948d13727p-1, 0x1.8310a42f0a2ffp-1,
        0x1.741541b5343d8p-1, 0x1.749faaa825c7p-1, 0x1.1b6fef920489dp-1,
        0x1.5299d5d623c47p-1, 0x1.ab303452dfcecp-1, 0x1.6753c0a238893p-1,
        0x1.2776082602b4fp-1, 0x1.55e0627379838p-1, 0x1.179fc08a0ddf3p-1,
        0x1.2c100bd668d18p-1, 0x1.b6d305a107b91p-1, 0x1.896e59edbbf97p-1,
        0x1p+0}});
}

// ---------- dashboard statistics: behaviour ----------

TEST(AcceptanceRates, WindowsAreContiguousAndTimeOrdered) {
  GreedyScheduler alg(2);
  const RunResult result = run_online(alg, tiny_instance());
  const auto windows = acceptance_rates(result, 2.0);
  ASSERT_FALSE(windows.empty());
  EXPECT_DOUBLE_EQ(windows.front().begin, 0.0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(windows[i].end - windows[i].begin, 2.0) << i;
  }
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].begin, windows[i - 1].end) << i;
  }
  EXPECT_GE(windows.back().end, result.metrics.makespan);
}

TEST(AcceptanceRates, WindowTotalsMatchTheRunMetrics) {
  // Job 2 cannot wait for job 1 to finish at 2: it is rejected.
  const Instance inst({make_job(1, 0.0, 2.0, 10.0), make_job(2, 1.0, 1.0, 2.5),
                       make_job(3, 5.0, 2.0, 8.0)});
  GreedyScheduler alg(1);
  const RunResult result = run_online(alg, inst);
  ASSERT_EQ(result.metrics.rejected, 1u);
  const auto windows = acceptance_rates(result, 1.0);
  EXPECT_DOUBLE_EQ(submitted_in_windows(windows), inst.total_volume());
  EXPECT_DOUBLE_EQ(accepted_in_windows(windows),
                   result.metrics.accepted_volume);
  // Keyed by release: job 2 (released at 1, rejected) sits in (0, 1].
  EXPECT_DOUBLE_EQ(windows[0].submitted_volume, 3.0);
  EXPECT_DOUBLE_EQ(windows[0].accepted_volume, 2.0);
}

TEST(AcceptanceRates, WindowsCoverTheRun) {
  WorkloadConfig config = scenario("overload", 0.05, 3);
  config.n = 500;
  const Instance inst = generate_workload(config);
  ThresholdScheduler alg(0.05, 2);
  const RunResult result = run_online(alg, inst);
  const auto windows = acceptance_rates(result, 10.0);

  ASSERT_FALSE(windows.empty());
  for (const AcceptanceWindow& w : windows) {
    EXPECT_GE(w.rate(), 0.0);
    EXPECT_LE(w.rate(), 1.0 + 1e-9);
  }
  // Roughly one window per 10 time units of the horizon.
  EXPECT_GE(windows.size(),
            static_cast<std::size_t>(result.metrics.makespan / 10.0));
}

TEST(AcceptanceRates, RunEndingAtTimeZeroKeepsItsSubmissions) {
  // Everything released at 0 and rejected: the makespan is 0 too.
  RunResult result{Schedule(1), RunMetrics{}, {}, {}};
  result.decisions.push_back(
      {make_job(1, 0.0, 2.0, 2.0), Decision::reject()});
  const auto windows = acceptance_rates(result, 5.0);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].submitted_volume, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].rate(), 0.0);
}

TEST(AcceptanceRates, RejectsBadWindow) {
  RunResult result{Schedule(1), RunMetrics{}, {}, {}};
  EXPECT_THROW((void)acceptance_rates(result, 0.0), PreconditionError);
}

TEST(Backlog, PeakTracksAcceptedWork) {
  // Two jobs accepted back to back at t = 0: peak backlog is their sum.
  const Instance inst({make_job(1, 0.0, 2.0, 10.0),
                       make_job(2, 0.0, 3.0, 10.0)});
  GreedyScheduler alg(1);
  const BacklogStats stats = backlog(run_online(alg, inst));
  EXPECT_DOUBLE_EQ(stats.peak, 5.0);
  // 5 until t = 2, then 3 until t = 5: (10 + 9) / 5.
  EXPECT_DOUBLE_EQ(stats.average, 19.0 / 5.0);
}

TEST(Backlog, CompletionPrecedesArrivalAtSameInstant) {
  // Job 1 runs [0, 2); job 2 arrives exactly at 2. Job 1 leaves the
  // backlog before job 2 enters it, so the peak is 2, not 3.
  const Instance inst({make_job(1, 0.0, 2.0, 5.0), make_job(2, 2.0, 1.0, 5.0)});
  GreedyScheduler alg(1);
  const BacklogStats stats = backlog(run_online(alg, inst));
  EXPECT_DOUBLE_EQ(stats.peak, 2.0);
}

TEST(Backlog, RelatedMachinesCompleteAtExecutionTime) {
  // On a speed-2 machine job 1 (p = 4) runs [0, 2), so it has left the
  // backlog when job 2 arrives at 2.
  const Instance inst({make_job(1, 0.0, 4.0, 10.0),
                       make_job(2, 2.0, 2.0, 10.0)});
  GreedyScheduler alg(SpeedProfile(std::vector<double>{2.0}),
                      GreedyPolicy::kBestFit);
  const RunResult result = run_online(alg, inst);
  ASSERT_EQ(result.metrics.accepted, 2u);
  const BacklogStats stats = backlog(result);
  EXPECT_DOUBLE_EQ(stats.peak, 4.0);
  // 4 over [0, 2), then 2 over [2, 3): (8 + 2) / 3.
  EXPECT_DOUBLE_EQ(stats.average, 10.0 / 3.0);
}

TEST(Backlog, EmptyRunIsZero) {
  const RunResult result{Schedule(2), RunMetrics{}, {}, {}};
  const BacklogStats stats = backlog(result);
  EXPECT_DOUBLE_EQ(stats.peak, 0.0);
  EXPECT_DOUBLE_EQ(stats.average, 0.0);
}

TEST(DashboardStatistics, UtilizationAndPeakRunningFollowTheSchedule) {
  WorkloadConfig config;
  config.n = 300;
  config.eps = 0.2;
  config.arrival_rate = 3.0;
  config.seed = 5;
  const Instance inst = generate_workload(config);
  GreedyScheduler alg(2);
  const RunResult result = run_online(alg, inst);

  EXPECT_GE(peak_running(result.schedule), 1);
  EXPECT_LE(peak_running(result.schedule), 2);
  EXPECT_NEAR(busy_machine_time(result.schedule),
              result.metrics.accepted_volume, 1e-6);
  EXPECT_NEAR(utilization(result.schedule, result.metrics.makespan),
              busy_machine_time(result.schedule) /
                  (2.0 * result.metrics.makespan),
              1e-9);
}

TEST(DashboardStatistics, ReusedSchedulerGivesIdenticalStatistics) {
  GreedyScheduler alg(1);
  const RunResult first = run_online(alg, tiny_instance());
  const RunResult second = run_online(alg, tiny_instance());
  EXPECT_EQ(utilization(first.schedule), utilization(second.schedule));
  EXPECT_EQ(backlog(first).average, backlog(second).average);
  EXPECT_EQ(acceptance_rates(first, 1.0).size(),
            acceptance_rates(second, 1.0).size());
}

// ---------- dashboard statistics: deferred and related-machine runs ----------

Instance overload_stream() {
  WorkloadConfig config = scenario("overload", 0.1, 17);
  config.n = 400;
  return generate_workload(config);
}

TEST(DashboardStatistics, DeferredRunsCountEveryDecidedJob) {
  // A deferred model answers defer() at arrival and decides later; the
  // statistics read the binding decisions the engine logged.
  const Instance inst = overload_stream();
  DeltaCommitScheduler delta(0.5, 3);
  DeltaCommitScheduler admission(
      {3, 0.0, /*commit_on_admission=*/true, QueuePolicy::kEdf, {}});
  for (OnlineScheduler* alg :
       std::vector<OnlineScheduler*>{&delta, &admission}) {
    const RunResult result = run_online(*alg, inst);
    ASSERT_TRUE(result.clean()) << alg->name();
    ASSERT_GT(result.metrics.accepted, 0u) << alg->name();
    ASSERT_EQ(result.decisions.size(), inst.size()) << alg->name();

    const auto windows = acceptance_rates(result, 10.0);
    expect_relative_near(accepted_in_windows(windows),
                         result.metrics.accepted_volume, 1e-12);
    expect_relative_near(submitted_in_windows(windows), inst.total_volume(),
                         1e-12);
    // Keyed by release, not by when the binding decision came out.
    std::vector<double> released(windows.size(), 0.0);
    for (const Job& job : inst.jobs()) {
      const double index = std::max(0.0, std::ceil(job.release / 10.0) - 1.0);
      released.at(static_cast<std::size_t>(index)) += job.proc;
    }
    for (std::size_t i = 0; i < windows.size(); ++i) {
      EXPECT_NEAR(windows[i].submitted_volume, released[i], 1e-9)
          << alg->name() << " window " << i;
    }
    EXPECT_GT(backlog(result).peak, 0.0) << alg->name();
  }
  EXPECT_EQ(run_online(delta, inst).metrics.accepted, 59u);
}

TEST(DashboardStatistics, RelatedMachinesCountExecutionTimeNotProcessing) {
  const Instance inst = overload_stream();
  ThresholdConfig config;
  config.eps = 0.1;
  config.machines = 3;
  config.speeds = SpeedProfile(std::vector<double>{2.0, 1.0, 0.5});
  ThresholdScheduler alg(config);
  const RunResult result = run_online(alg, inst);
  ASSERT_TRUE(result.clean()) << result.commitment_violation;
  EXPECT_EQ(result.metrics.accepted, 40u);

  const std::vector<double> speeds{2.0, 1.0, 0.5};
  double placed = 0.0;
  for (const DecisionRecord& record : result.decisions) {
    if (!record.decision.accepted) continue;
    placed += record.job.proc /
              speeds[static_cast<std::size_t>(record.decision.machine)];
  }
  expect_relative_near(busy_machine_time(result.schedule), placed, 1e-9);
  EXPECT_GT(std::abs(placed - result.metrics.accepted_volume), 1.0);

  const auto windows = acceptance_rates(result, 10.0);
  expect_relative_near(accepted_in_windows(windows),
                       result.metrics.accepted_volume, 1e-12);
}

}  // namespace
}  // namespace slacksched
