// ELASTIC: criticality-ordered shedding and elastic-pool pressure.
//
// Measures the three properties the policy layer promises:
//   1. shed ordering — under a sustained mixed-criticality overload the
//      gateway sheds strictly by class: background loses the largest
//      fraction, each higher class strictly less, critical none at all;
//   2. shrink drain — a two-phase load (overload burst, then idle
//      trickle) grows the pool to max and shrinks it back to min, every
//      retire-begin matched by a retire-done in the WAL, and a replay
//      against a fresh scheduler lands on the same machine count;
//   3. steady-state overhead — with the controller holding the pool in
//      the hysteresis band (zero resizes, by sim-time determinism), the
//      elastic shard's per-job cost vs a fixed-m shard, min-of-repeats.
// Emits BENCH_elastic.json so scripts/perf_check.py can gate the results.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "core/threshold.hpp"
#include "policy/capacity_controller.hpp"
#include "policy/criticality.hpp"
#include "policy/shed_policy.hpp"
#include "service/commit_log.hpp"
#include "service/gateway.hpp"
#include "service/metrics_registry.hpp"
#include "service/recovery.hpp"
#include "service/shard.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;

struct ShedStats {
  std::array<std::size_t, kCriticalityCount> offered{};
  std::array<std::size_t, kCriticalityCount> shed{};
  std::array<double, kCriticalityCount> shed_frac{};
  std::size_t queue_full = 0;
  bool ordering_ok = false;
};

struct DrainStats {
  int grows = 0;
  int retire_begins = 0;
  int retire_dones = 0;
  int final_active = 0;
  int replay_active = 0;
  std::size_t records_replayed = 0;
  bool drain_completed = false;
  bool replay_matches = false;
};

struct OverheadStats {
  std::size_t jobs = 0;
  int repeats = 0;
  double fixed_seconds = 0.0;
  double elastic_seconds = 0.0;
  double fixed_ns_per_job = 0.0;
  double elastic_ns_per_job = 0.0;
  double overhead_pct = 0.0;
  int resizes = 0;
};

std::string bench_dir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "slacksched_bench_elastic")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Threshold scheduler whose admission blocks on a gate: the bench holds
/// the consumer still while it scripts the queue occupancy the shed
/// policy sees, then releases it to drain.
class GatedThreshold final : public OnlineScheduler {
 public:
  GatedThreshold(double eps, int machines, std::atomic<bool>* gate)
      : inner_(eps, machines), gate_(gate) {}

  Decision on_arrival(const Job& job) override {
    while (!gate_->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return inner_.on_arrival(job);
  }
  int machines() const override { return inner_.machines(); }
  void reset() override { inner_.reset(); }
  std::string name() const override { return "GatedThreshold"; }

 private:
  ThresholdScheduler inner_;
  std::atomic<bool>* gate_;
};

// ---------- phase 1: shed ordering under overload ----------

ShedStats bench_shed_ordering(std::size_t n) {
  WorkloadConfig wconfig = scenario("mixed-criticality", 0.1, 20260807);
  wconfig.n = n;
  const Instance instance = generate_workload(wconfig);

  std::atomic<bool> gate{false};
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 256;
  config.batch_size = 1;
  config.supervisor.enabled = false;
  config.shed_policy = ShedPolicyConfig{};
  AdmissionGateway gateway(config, [&gate](int) {
    return std::make_unique<GatedThreshold>(0.1, 4, &gate);
  });

  ShedStats stats;
  for (const Job& job : instance.jobs()) {
    const std::size_t cls = criticality_index(job.criticality);
    ++stats.offered[cls];
    switch (gateway.submit(job)) {
      case Outcome::kRejectedCriticality:
        ++stats.shed[cls];
        break;
      case Outcome::kRejectedQueueFull:
        ++stats.queue_full;
        break;
      default:
        break;
    }
  }
  gate.store(true, std::memory_order_release);
  const GatewayResult result = gateway.finish();

  stats.ordering_ok = result.clean();
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    stats.ordering_ok = stats.ordering_ok && stats.offered[cls] > 0;
    stats.shed_frac[cls] =
        stats.offered[cls] == 0
            ? 0.0
            : static_cast<double>(stats.shed[cls]) /
                  static_cast<double>(stats.offered[cls]);
  }
  // The gate: strictly low-before-high, with the top class untouched.
  for (std::size_t cls = 1; cls < kCriticalityCount; ++cls) {
    stats.ordering_ok =
        stats.ordering_ok && stats.shed_frac[cls - 1] > stats.shed_frac[cls];
  }
  stats.ordering_ok = stats.ordering_ok &&
                      stats.shed[criticality_index(Criticality::kCritical)] == 0;
  // The live counters must agree with the per-submit outcomes.
  stats.ordering_ok =
      stats.ordering_ok && result.metrics.total.class_shed == stats.shed;
  return stats;
}

// ---------- phase 2: grow, shrink, drain, replay ----------

/// Overload burst (utilization 1 on every active machine, grows to max),
/// then an idle far-future trickle (shrinks back to min, each drain
/// completing on the next observation because sim time leaps past every
/// old frontier).
std::vector<Job> two_phase_jobs() {
  std::vector<Job> jobs;
  JobId id = 1;
  for (int i = 0; i < 160; ++i) {
    Job job;
    job.id = id++;
    job.release = 0.1 * i;
    job.proc = 1.0;
    job.deadline = job.release + 1.5;
    jobs.push_back(job);
  }
  for (int i = 0; i < 80; ++i) {
    Job job;
    job.id = id++;
    job.release = 1000.0 + 50.0 * i;
    job.proc = 0.1;
    job.deadline = job.release + 10.0;
    jobs.push_back(job);
  }
  return jobs;
}

constexpr int kInitialMachines = 2;

DrainStats bench_shrink_drain(const std::string& dir) {
  const std::string wal = dir + "/drain.wal";

  ShardConfig config;
  config.queue_capacity = 1024;
  config.batch_size = 1;  // one controller observation per job
  config.wal_path = wal;
  config.wal_fsync = FsyncPolicy::kNever;  // the bench times nothing here
  CapacityControllerConfig elastic;
  elastic.min_machines = kInitialMachines;
  elastic.max_machines = 6;
  elastic.window = 2;
  elastic.cooldown_windows = 0;
  config.elastic = elastic;

  MetricsRegistry metrics(1);
  Shard shard(
      0, [] { return std::make_unique<ThresholdScheduler>(0.5, kInitialMachines); },
      config, metrics);
  const std::vector<Job> jobs = two_phase_jobs();
  (void)shard.try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                                Shard::Clock::now());
  shard.close();
  shard.start();
  shard.join();

  DrainStats stats;
  stats.final_active = shard.scheduler().active_machines();

  // Count the control records straight off the log.
  {
    std::ifstream in(wal, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::size_t offset = kWalHeaderBytes;
    while (offset + kWalRecordBytes <= bytes.size()) {
      std::int64_t id = 0;
      std::memcpy(&id, bytes.data() + offset + kWalFrameBytes, sizeof(id));
      if (id == kWalControlGrow) ++stats.grows;
      if (id == kWalControlRetireBegin) ++stats.retire_begins;
      if (id == kWalControlRetireDone) ++stats.retire_dones;
      offset += kWalRecordBytes;
    }
  }
  stats.drain_completed = stats.grows > 0 && stats.retire_begins > 0 &&
                          stats.retire_begins == stats.retire_dones &&
                          stats.final_active == elastic.min_machines;

  ThresholdScheduler fresh(0.5, kInitialMachines);
  fresh.reset();
  const RecoveryResult replayed = recover_commit_log(
      wal, kInitialMachines, &fresh, /*truncate_file=*/false);
  stats.records_replayed = replayed.records_replayed;
  stats.replay_active = replayed.ok ? fresh.active_machines() : -1;
  stats.replay_matches =
      replayed.ok && stats.replay_active == stats.final_active;
  return stats;
}

// ---------- phase 3: steady-state overhead ----------

/// Mid-band load for 4 machines: arrival spacing 0.35, unit jobs, so
/// roughly three machines stay busy — utilization sits between the
/// shrink (0.4) and grow (0.9) thresholds and the controller never acts.
/// Everything is sim-time-driven off a pre-filled closed queue, so the
/// zero-resize outcome is deterministic across machines.
std::vector<Job> mid_band_jobs(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job job;
    job.id = static_cast<JobId>(i + 1);
    job.release = 0.35 * static_cast<double>(i);
    job.proc = 1.0;
    job.deadline = job.release + 8.0;
    jobs.push_back(job);
  }
  return jobs;
}

double run_shard_once(const std::vector<Job>& jobs, bool elastic,
                      int* resizes) {
  ShardConfig config;
  config.queue_capacity = next_pow2(jobs.size() + 1);
  config.batch_size = 16;
  if (elastic) {
    CapacityControllerConfig controller;
    controller.min_machines = 2;
    controller.max_machines = 8;
    controller.window = 16;
    controller.cooldown_windows = 4;
    config.elastic = controller;
  }
  MetricsRegistry metrics(1);
  Shard shard(
      0, [] { return std::make_unique<ThresholdScheduler>(0.5, 4); }, config,
      metrics);
  if (shard.try_enqueue_batch(jobs.data(), nullptr, jobs.size(),
                              Shard::Clock::now())
          .taken != jobs.size()) {
    std::fprintf(stderr, "FATAL: overhead queue refused a job\n");
    std::exit(1);
  }
  shard.close();
  const auto t0 = std::chrono::steady_clock::now();
  shard.start();
  shard.join();
  const double seconds = seconds_since(t0);
  if (resizes != nullptr) {
    *resizes += std::abs(shard.scheduler().active_machines() - 4);
    *resizes += std::abs(shard.scheduler().machines() - 4);
  }
  return seconds;
}

OverheadStats bench_overhead(std::size_t n, int repeats) {
  const std::vector<Job> jobs = mid_band_jobs(n);
  OverheadStats stats;
  stats.jobs = n;
  stats.repeats = repeats;
  stats.fixed_seconds = 1e30;
  stats.elastic_seconds = 1e30;
  for (int r = 0; r < repeats; ++r) {
    stats.fixed_seconds =
        std::min(stats.fixed_seconds, run_shard_once(jobs, false, nullptr));
    stats.elastic_seconds = std::min(
        stats.elastic_seconds, run_shard_once(jobs, true, &stats.resizes));
  }
  stats.fixed_ns_per_job =
      stats.fixed_seconds / static_cast<double>(n) * 1e9;
  stats.elastic_ns_per_job =
      stats.elastic_seconds / static_cast<double>(n) * 1e9;
  stats.overhead_pct =
      (stats.elastic_seconds - stats.fixed_seconds) / stats.fixed_seconds *
      100.0;
  return stats;
}

// ---------- artifact ----------

void write_json(const ShedStats& shed, const DrainStats& drain,
                const OverheadStats& overhead, bool clean) {
  std::ofstream out("BENCH_elastic.json");
  out << "{\n"
      << "  \"bench\": \"elastic_pressure\",\n"
      << bench::BenchEnv::detect(1, /*pinned=*/false, "closed").json_fields()
      << "  \"shed\": {\n    \"classes\": [";
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    out << "\"" << criticality_label(static_cast<Criticality>(cls)) << "\""
        << (cls + 1 < kCriticalityCount ? ", " : "");
  }
  out << "],\n    \"offered\": [";
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    out << shed.offered[cls] << (cls + 1 < kCriticalityCount ? ", " : "");
  }
  out << "],\n    \"shed\": [";
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    out << shed.shed[cls] << (cls + 1 < kCriticalityCount ? ", " : "");
  }
  out << "],\n    \"shed_frac\": [";
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    out << shed.shed_frac[cls] << (cls + 1 < kCriticalityCount ? ", " : "");
  }
  out << "],\n    \"queue_full\": " << shed.queue_full
      << ",\n    \"ordering_ok\": " << (shed.ordering_ok ? "true" : "false")
      << "\n  },\n"
      << "  \"drain\": {\"grows\": " << drain.grows
      << ", \"retire_begins\": " << drain.retire_begins
      << ", \"retire_dones\": " << drain.retire_dones
      << ", \"final_active\": " << drain.final_active
      << ", \"replay_active\": " << drain.replay_active
      << ", \"records_replayed\": " << drain.records_replayed
      << ", \"drain_completed\": "
      << (drain.drain_completed ? "true" : "false")
      << ", \"replay_matches\": " << (drain.replay_matches ? "true" : "false")
      << "},\n"
      << "  \"overhead\": {\"jobs\": " << overhead.jobs
      << ", \"repeats\": " << overhead.repeats
      << ", \"fixed_seconds\": " << overhead.fixed_seconds
      << ", \"elastic_seconds\": " << overhead.elastic_seconds
      << ", \"fixed_ns_per_job\": " << overhead.fixed_ns_per_job
      << ", \"elastic_ns_per_job\": " << overhead.elastic_ns_per_job
      << ", \"overhead_pct\": " << overhead.overhead_pct
      << ", \"resizes\": " << overhead.resizes << "},\n"
      << "  \"clean\": " << (clean ? "true" : "false") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional scale override: elastic_pressure [overhead_jobs], default
  // 200000; CI smoke runs pass e.g. 20000.
  std::size_t overhead_jobs = 200'000;
  if (argc > 1) {
    char* end = nullptr;
    overhead_jobs = std::strtoull(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || overhead_jobs < 1000) {
      std::fprintf(stderr, "usage: %s [overhead_jobs>=1000]\n", argv[0]);
      return 2;
    }
  }
  const std::string dir = bench_dir();

  std::printf("ELASTIC: class-aware shedding and elastic-pool pressure\n\n");

  const ShedStats shed = bench_shed_ordering(4000);
  std::printf("  shed ordering under overload (capacity 256)\n");
  std::printf("  %-12s  %8s  %8s  %10s\n", "class", "offered", "shed",
              "shed_frac");
  for (std::size_t cls = 0; cls < kCriticalityCount; ++cls) {
    std::printf("  %-12s  %8zu  %8zu  %10.4f\n",
                std::string(criticality_label(static_cast<Criticality>(cls)))
                    .c_str(),
                shed.offered[cls], shed.shed[cls], shed.shed_frac[cls]);
  }
  std::printf("  queue_full=%zu  ordering %s\n\n", shed.queue_full,
              shed.ordering_ok ? "strict low-before-high" : "VIOLATED");

  const DrainStats drain = bench_shrink_drain(dir);
  std::printf("  shrink drain: %d grows, %d retire-begins, %d retire-dones, "
              "final active=%d, replay active=%d (%s, %s)\n\n",
              drain.grows, drain.retire_begins, drain.retire_dones,
              drain.final_active, drain.replay_active,
              drain.drain_completed ? "drained" : "DRAIN INCOMPLETE",
              drain.replay_matches ? "replay matches" : "REPLAY DIVERGED");

  const OverheadStats overhead = bench_overhead(overhead_jobs, 5);
  std::printf("  steady-state overhead (%zu jobs, min of %d runs)\n",
              overhead.jobs, overhead.repeats);
  std::printf("  %-8s  %12s  %14s\n", "pool", "seconds", "ns/job");
  std::printf("  %-8s  %12.4f  %14.1f\n", "fixed", overhead.fixed_seconds,
              overhead.fixed_ns_per_job);
  std::printf("  %-8s  %12.4f  %14.1f\n", "elastic", overhead.elastic_seconds,
              overhead.elastic_ns_per_job);
  std::printf("  overhead %+.2f%%  resizes=%d\n\n", overhead.overhead_pct,
              overhead.resizes);

  const bool clean = shed.ordering_ok && drain.drain_completed &&
                     drain.replay_matches && overhead.resizes == 0;
  write_json(shed, drain, overhead, clean);
  std::printf("  wrote BENCH_elastic.json\n");
  std::filesystem::remove_all(dir);
  if (!clean) {
    std::printf("  FATAL: an elastic property did not hold\n");
    return 1;
  }
  return 0;
}
