// Live admission dashboard — what a provider's monitoring sees.
//
// Runs the bursty cloud scenario through the engine and reads the
// windowed acceptance-rate series, utilization and SLA-backlog statistics
// off each run's result (sched/timeline.hpp), and (optionally) prints the
// decision log.
//
// Usage: live_dashboard [--eps=0.1] [--machines=4] [--jobs=1500]
//                       [--window=25] [--log-events]
#include <algorithm>
#include <iostream>

#include "baselines/greedy.hpp"
#include "common/ascii_chart.hpp"
#include "common/cli.hpp"
#include "common/histogram.hpp"
#include "common/table.hpp"
#include "core/threshold.hpp"
#include "sched/decision_io.hpp"
#include "sched/engine.hpp"
#include "sched/timeline.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace slacksched;
  const CliArgs args(argc, argv);
  const double eps = args.get_double("eps", 0.1);
  const int machines = static_cast<int>(args.get_int("machines", 4));
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 1500));
  const double window = args.get_double("window", 25.0);

  WorkloadConfig config = scenario("cloud-burst", eps, 11);
  config.n = jobs;
  const Instance instance = generate_workload(config);

  std::cout << "=== live admission dashboard ===\n"
            << config.to_string() << "\n\n";

  // The job-size mix of the trace (heavy-tailed by construction).
  Histogram sizes = Histogram::logarithmic(config.size_min,
                                           config.size_max, 8);
  for (const Job& job : instance.jobs()) sizes.add(job.proc);
  std::cout << "job-size distribution:\n";
  sizes.print(std::cout);
  std::cout << "\n";

  struct PolicyRow {
    std::string name;
    double utilization;
    int peak_running;
    double peak_backlog;
    double avg_backlog;
    double volume;
    std::vector<double> rates;
  };
  std::vector<PolicyRow> rows;

  auto run_policy = [&](OnlineScheduler& scheduler) {
    const RunResult result = run_online(scheduler, instance);
    if (args.get_bool("log-events", false)) {
      write_decisions(std::cout, result.decisions);
    }
    int peak_running = 0;
    for (const BusySegment& segment : busy_timeline(result.schedule)) {
      peak_running = std::max(peak_running, segment.busy_machines);
    }
    const BacklogStats exposure = backlog(result);
    std::vector<double> rates;
    for (const AcceptanceWindow& w : acceptance_rates(result, window)) {
      rates.push_back(w.rate());
    }
    rows.push_back({scheduler.name(),
                    utilization(result.schedule, result.metrics.makespan),
                    peak_running, exposure.peak, exposure.average,
                    result.metrics.accepted_volume, std::move(rates)});
  };

  ThresholdScheduler threshold(eps, machines);
  GreedyScheduler greedy(machines);
  run_policy(threshold);
  run_policy(greedy);

  Table table({"policy", "volume", "utilization", "peak running",
               "peak backlog", "avg backlog"});
  for (const PolicyRow& row : rows) {
    table.add_row({row.name, Table::format(row.volume, 1),
                   Table::format(row.utilization, 3),
                   std::to_string(row.peak_running),
                   Table::format(row.peak_backlog, 1),
                   Table::format(row.avg_backlog, 1)});
  }
  table.print(std::cout);

  // Acceptance-rate series, one chart for both policies.
  std::vector<ChartSeries> series;
  const char glyphs[] = {'T', 'G'};
  for (std::size_t p = 0; p < rows.size(); ++p) {
    ChartSeries s;
    s.name = rows[p].name;
    s.glyph = glyphs[p % 2];
    for (std::size_t i = 0; i < rows[p].rates.size(); ++i) {
      s.x.push_back(static_cast<double>(i + 1) * window);
      s.y.push_back(rows[p].rates[i]);
    }
    series.push_back(std::move(s));
  }
  ChartOptions options;
  options.title = "\nwindowed volume acceptance rate over time:";
  options.x_label = "time";
  options.height = 14;
  render_chart(std::cout, series, options);

  std::cout << "\nreading: during bursts the Threshold policy sheds load "
               "early (lower rate dips) to\nprotect its worst-case "
               "guarantee, while greedy fills machines and risks the "
               "adversarial\npattern of thm1_adversary. Peak backlog shows "
               "the SLA exposure each policy accumulates.\n";
  return 0;
}
