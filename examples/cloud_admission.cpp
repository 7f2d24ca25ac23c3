// Cloud admission control — the paper's motivating IaaS scenario.
//
// A provider rents out m machines. Jobs arrive as a bursty mix of
// heavy-tailed batch work and urgent interactive requests; each acceptance
// is a binding SLA (immediate commitment). This example compares the
// revenue (accepted load) of Algorithm 1 against greedy admission and the
// relaxed commitment models, across service levels (slack tiers), and
// shows how the provider can read the slack parameter as a revenue knob.
//
// Usage: cloud_admission [--machines=4] [--jobs=2000] [--seed=1]
#include <iostream>

#include "baselines/edf_preemptive.hpp"
#include "baselines/greedy.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/threshold.hpp"
#include "models/delta_commit.hpp"
#include "offline/upper_bound.hpp"
#include "sched/engine.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace slacksched;
  const CliArgs args(argc, argv);
  const int machines = static_cast<int>(args.get_int("machines", 4));
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 2000));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::cout << "=== cloud admission control: " << machines
            << " machines, " << jobs << " jobs/scenario ===\n\n";

  Table table({"SLA tier (eps)", "volume", "Threshold", "Greedy", "Queue",
               "P-EDF", "frac UB", "Thr guarantee"});

  for (double eps : {0.02, 0.1, 0.5, 1.0}) {
    WorkloadConfig config = scenario("cloud-burst", eps, seed);
    config.n = jobs;
    const Instance instance = generate_workload(config);

    ThresholdScheduler threshold(eps, machines);
    GreedyScheduler greedy(machines);
    DeltaCommitScheduler admission(
        {machines, 0.0, /*commit_on_admission=*/true, QueuePolicy::kEdf, {}});
    const double thr = run_online(threshold, instance).metrics.accepted_volume;
    const double grd = run_online(greedy, instance).metrics.accepted_volume;
    const double queue =
        run_online(admission, instance).metrics.accepted_volume;
    const double pedf =
        run_edf_preemptive(instance, machines).metrics.accepted_volume;
    const double ub = preemptive_fractional_upper_bound(instance, machines);

    table.add_row({Table::format(eps, 2),
                   Table::format(instance.total_volume(), 0),
                   Table::format(thr, 0), Table::format(grd, 0),
                   Table::format(queue, 0), Table::format(pedf, 0),
                   Table::format(ub, 0),
                   "1/" + Table::format(threshold.solution().c, 2)});
  }
  table.print(std::cout);

  std::cout
      << "\nhow to read this:\n"
      << "  * 'Thr guarantee' is the worst-case revenue fraction Algorithm 1 "
         "certifies (1/c(eps,m)) --\n"
      << "    no adversarial burst can push it below that, unlike greedy "
         "(whose guarantee decays like eps/1).\n"
      << "  * Larger slack (a looser SLA tier) buys a sharply better "
         "guarantee: the provider can price tiers\n"
      << "    directly off the c(eps, m) curve of Fig. 1.\n"
      << "  * Queue/P-EDF show what relaxing the commitment model itself "
         "would buy on this trace.\n";
  return 0;
}
