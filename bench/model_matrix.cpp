// MATRIX: the cross-model sweep of the commitment-model matrix.
//
// Replays poisson / burst / adversarial job streams through every point of
// {commit model} x {eps} x {m} x {speed profile}, all built by the same
// model factory the gateway's scheduler selector uses. Every run goes
// through run_online, so every decision is validated against both physics
// and the model's irrevocability contract; a row is "clean" only when the
// whole stream was decided legally, and "valid" only when the committed
// schedule passes the offline validator. Emits BENCH_matrix.json, gated by
// scripts/perf_check.py --matrix-json: all rows clean + valid, full
// coverage of the grid, and the uniform Threshold rows within noise of the
// committed BENCH_threshold.json trajectory.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "models/model_factory.hpp"
#include "models/speed_profile.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;

struct Row {
  std::string model;         // ModelConfig::label()
  std::string commit_model;  // to_string(CommitModel)
  double eps = 0.0;
  int machines = 0;
  std::string speed_profile;
  std::string workload;
  std::size_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double accepted_volume = 0.0;
  bool clean = false;  // every decision legal under the model's contract
  bool valid = false;  // committed schedule passes the offline validator
  std::string violation;
};

/// The three stream shapes of the sweep. "adversarial" is the batch worst
/// case: everything released at once with exactly the guaranteed slack, so
/// deferred models must triage a deep queue under tight windows.
Instance make_stream(const std::string& workload, double eps, int machines,
                     std::size_t n) {
  WorkloadConfig config;
  config.n = n;
  config.eps = eps;
  config.arrival_rate = static_cast<double>(machines);
  config.seed = 42;
  if (workload == "burst") {
    config.arrival = ArrivalModel::kBursty;
  } else if (workload == "adversarial") {
    config.arrival = ArrivalModel::kAllAtOnce;
    config.slack = SlackModel::kTight;
  }
  return generate_workload(config);
}

std::vector<ModelConfig> model_grid(double eps, int machines,
                                    const SpeedProfile& profile) {
  const std::vector<double> speeds =
      profile.uniform() ? std::vector<double>{} : profile.speeds();
  std::vector<ModelConfig> grid;
  {
    ModelConfig c;
    c.model = CommitModel::kOnArrival;
    c.arrival = ArrivalPolicy::kThreshold;
    c.eps = eps;
    c.machines = machines;
    c.speeds = speeds;
    grid.push_back(c);
  }
  {
    ModelConfig c;
    c.model = CommitModel::kOnArrival;
    c.arrival = ArrivalPolicy::kGreedyBestFit;
    c.machines = machines;
    c.speeds = speeds;
    grid.push_back(c);
  }
  for (const double delta : {0.25, 1.0}) {
    ModelConfig c;
    c.model = CommitModel::kDelta;
    c.delta = delta;
    c.machines = machines;
    c.speeds = speeds;
    grid.push_back(c);
  }
  {
    ModelConfig c;
    c.model = CommitModel::kOnAdmission;
    c.machines = machines;
    c.speeds = speeds;
    grid.push_back(c);
  }
  return grid;
}

Row run_point(const ModelConfig& config, const SpeedProfile& profile,
              const std::string& workload, const Instance& instance,
              double eps) {
  Row row;
  row.model = config.label();
  row.commit_model = to_string(config.model);
  row.eps = eps;
  row.machines = config.machines;
  row.speed_profile = profile.label();
  row.workload = workload;
  row.jobs = instance.size();

  const std::unique_ptr<OnlineScheduler> scheduler = make_scheduler(config);
  RunOptions options;
  options.record_decisions = false;  // legality is checked either way
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = run_online(*scheduler, instance, options);
  const auto stop = std::chrono::steady_clock::now();

  row.seconds = std::chrono::duration<double>(stop - start).count();
  row.jobs_per_sec = static_cast<double>(instance.size()) / row.seconds;
  row.accepted = result.metrics.accepted;
  row.rejected = result.metrics.rejected;
  row.accepted_volume = result.metrics.accepted_volume;
  row.clean = result.clean() &&
              result.metrics.accepted + result.metrics.rejected ==
                  instance.size();
  row.violation = result.commitment_violation;
  row.valid = validate_schedule(instance, result.schedule).ok;
  return row;
}

void write_json(const std::vector<Row>& rows, std::size_t jobs) {
  std::ofstream out("BENCH_matrix.json");
  out << "{\n"
      << "  \"bench\": \"model_matrix\",\n"
      << bench::provenance_fields()
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"commit_model\": \""
        << r.commit_model << "\", \"eps\": " << r.eps
        << ", \"machines\": " << r.machines << ", \"speed_profile\": \""
        << r.speed_profile << "\", \"workload\": \"" << r.workload
        << "\", \"jobs\": " << r.jobs << ", \"seconds\": " << r.seconds
        << ", \"jobs_per_sec\": " << r.jobs_per_sec
        << ", \"accepted\": " << r.accepted
        << ", \"rejected\": " << r.rejected
        << ", \"accepted_volume\": " << r.accepted_volume
        << ", \"clean\": " << (r.clean ? "true" : "false")
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional override: model_matrix [jobs-per-row], default 4000 (keeps the
  // 180-row sweep under a minute); smoke-test with e.g. 500.
  std::size_t n = 4000;
  if (argc > 1) {
    char* end = nullptr;
    n = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [jobs>0]  (got '%s')\n", argv[0],
                   argv[1]);
      return 2;
    }
  }

  std::printf("MATRIX: commitment-model sweep (%zu jobs per row)\n\n", n);
  std::printf("  %-26s %-12s %5s %3s %-18s %-11s %12s %9s %9s  %s\n",
              "model", "commit", "eps", "m", "speeds", "workload",
              "jobs/sec", "accepted", "rejected", "status");

  std::vector<Row> rows;
  bool all_ok = true;
  for (const double eps : {0.1, 0.5}) {
    for (const int machines : {4, 16}) {
      const std::vector<SpeedProfile> profiles = {
          SpeedProfile(machines),
          SpeedProfile::two_tier(machines, machines / 4, 4.0),
          SpeedProfile::geometric(machines, 0.75),
      };
      for (const std::string workload : {"poisson", "burst", "adversarial"}) {
        const Instance instance = make_stream(workload, eps, machines, n);
        for (const SpeedProfile& profile : profiles) {
          for (const ModelConfig& config :
               model_grid(eps, machines, profile)) {
            const Row row = run_point(config, profile, workload, instance,
                                      eps);
            std::printf(
                "  %-26s %-12s %5.2f %3d %-18s %-11s %12.0f %9zu %9zu  %s\n",
                row.model.c_str(), row.commit_model.c_str(), row.eps,
                row.machines, row.speed_profile.c_str(),
                row.workload.c_str(), row.jobs_per_sec, row.accepted,
                row.rejected,
                row.clean && row.valid
                    ? "ok"
                    : (row.violation.empty() ? "INVALID SCHEDULE"
                                             : row.violation.c_str()));
            all_ok = all_ok && row.clean && row.valid;
            rows.push_back(row);
          }
        }
      }
    }
  }

  write_json(rows, n);
  std::printf("\n  %zu rows; wrote BENCH_matrix.json\n", rows.size());
  if (!all_ok) {
    std::fprintf(stderr, "FAILED: at least one row was not clean+valid\n");
    return 1;
  }
  return 0;
}
