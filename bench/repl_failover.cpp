// REPL: cost of commit-log replication, and how fast a follower takes
// over when the leader dies.
//
// Phase 1 (overhead): replays the same synthetic stream through a durable
// 2-shard gateway twice — no replication (the baseline), then ack-on-batch
// replication streaming into an in-process loopback ReplicaServer. The
// producer is a windowed closed loop: batches of kSubmitBatch, at most
// kWindow jobs in flight (counted through on_decision), so no job is ever
// shed for a full queue and both modes decide the same problem — equal
// leader_records. The replicated run must end with the follower's logs
// holding exactly the leader's records; the decided-jobs/sec column is the
// price of that guarantee. Expectation: ack-on-batch pays the record formatting, the
// follower I/O and one follower round trip per shard group (every batch a
// shard decides under one sync).
//
// Phase 2 (failover): repeatedly runs leader traffic into a follower,
// destroys the leader mid-stream (the process-death model: heartbeats
// stop, the session drops), and measures two latencies from the moment of
// death — the leader's last frame as the follower received it, where its
// silence begins: detect (FailoverDriver breaks the circuit, which the one
// failover rule puts at down_threshold of silence) and serve (a promoted
// gateway renders its first admission decision from the replica's logs).
// Reports p50/p99 across iterations and the drill's down_threshold. Emits
// BENCH_repl.json, gated by scripts/perf_check.py --repl-json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "core/threshold.hpp"
#include "replication/failover.hpp"
#include "replication/replica_server.hpp"
#include "service/gateway.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;

constexpr double kEps = 0.1;
constexpr int kMachinesPerShard = 8;
constexpr int kShards = 2;
/// Closed-loop window: jobs submitted but not yet decided. It fits one
/// shard queue (queue_capacity below), so no submission is ever refused.
constexpr std::size_t kWindow = 8192;
constexpr std::size_t kSubmitBatch = 256;

ShardSchedulerFactory factory() {
  return [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kMachinesPerShard);
  };
}

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("bench_repl_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void drop_dir(const std::string& dir) { std::filesystem::remove_all(dir); }

struct ModeRun {
  std::string mode;  ///< "baseline" or "ack-on-batch"
  std::size_t jobs = 0;
  std::size_t decided = 0;  ///< jobs answered through on_decision
  double seconds = 0.0;
  double jobs_per_sec = 0.0;  ///< decided jobs per second
  std::uint64_t leader_records = 0;
  std::uint64_t follower_records = 0;
  bool clean = false;
};

/// One full replay of `instance` through a durable gateway, replicated or
/// not (the baseline).
ModeRun run_mode(const Instance& instance, bool replicated) {
  const std::string tag = replicated ? "ack-on-batch" : "baseline";
  ModeRun run;
  run.mode = tag;
  run.jobs = instance.size();

  const std::string leader_dir = fresh_dir("leader_" + tag);
  std::optional<repl::ReplicaServerConfig> replica_config;
  std::unique_ptr<repl::ReplicaServer> replica;
  if (replicated) {
    replica_config.emplace();
    replica_config->dir = fresh_dir("replica_" + tag);
    replica_config->shards = kShards;
    replica = std::make_unique<repl::ReplicaServer>(*replica_config);
  }

  std::atomic<std::uint32_t> decided{0};
  GatewayConfig config;
  config.shards = kShards;
  config.queue_capacity = kWindow;
  config.batch_size = 512;
  config.routing = RoutingPolicy::kHash;
  config.wal_dir = leader_dir;
  config.on_decision = [&decided](int, const Job&, const Decision&,
                                  std::uint64_t) {
    decided.fetch_add(1, std::memory_order_release);
    decided.notify_one();
  };
  if (replicated) {
    config.replication.emplace();
    config.replication->port = replica->port();
  }

  // Sleeps until at least `target` jobs are decided.
  const auto wait_for = [&decided](std::size_t target) {
    for (std::uint32_t seen = decided.load(std::memory_order_acquire);
         seen < target; seen = decided.load(std::memory_order_acquire)) {
      decided.wait(seen);
    }
  };
  const std::span<const Job> jobs(instance.jobs());
  std::size_t shed = 0;
  const auto start = std::chrono::steady_clock::now();
  GatewayResult result = [&] {
    AdmissionGateway gateway(config, factory());
    for (std::size_t i = 0; i < jobs.size(); i += kSubmitBatch) {
      const std::size_t k = std::min(kSubmitBatch, jobs.size() - i);
      if (i + k > kWindow) wait_for(i + k - kWindow);
      shed += k - gateway.submit_batch(jobs.subspan(i, k)).enqueued;
    }
    wait_for(jobs.size() - shed);
    return gateway.finish();
  }();
  const auto stop = std::chrono::steady_clock::now();

  run.decided = decided.load();
  run.seconds = std::chrono::duration<double>(stop - start).count();
  run.jobs_per_sec = static_cast<double>(run.decided) / run.seconds;
  run.leader_records = result.merged.accepted;
  if (replica) {
    for (int s = 0; s < kShards; ++s) {
      run.follower_records += replica->watermark(s);
    }
    replica->stop();
  }
  // Clean means the drain validated, every job was decided (none shed),
  // AND (when replicating) the follower holds every accepted record — an
  // orderly close drains.
  run.clean = result.clean() && run.decided == run.jobs &&
              (!replicated || run.follower_records == run.leader_records);
  drop_dir(leader_dir);
  if (replica_config) drop_dir(replica_config->dir);
  return run;
}

/// The drill's failover policy: against the leader's 5 ms heartbeat, a
/// 25 ms stall and a 100 ms down threshold, polled every millisecond.
repl::FailoverConfig drill_failover() {
  repl::FailoverConfig failover;
  failover.poll_interval = std::chrono::milliseconds(1);
  failover.stall_threshold = std::chrono::milliseconds(25);
  failover.down_threshold = std::chrono::milliseconds(100);
  return failover;
}

struct FailoverSample {
  double detect_ms = 0.0;  ///< leader death -> circuit broken
  double serve_ms = 0.0;   ///< leader death -> first promoted decision
};

/// One leader-death drill: traffic, kill, detect, promote, first decision.
FailoverSample run_failover_once(const Instance& instance, int iteration) {
  const std::string tag = std::to_string(iteration);
  const std::string leader_dir = fresh_dir("fo_leader_" + tag);
  repl::ReplicaServerConfig replica_config;
  replica_config.dir = fresh_dir("fo_replica_" + tag);
  replica_config.shards = 1;
  repl::ReplicaServer replica(replica_config);

  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 8192;
  config.batch_size = 256;
  config.wal_dir = leader_dir;
  config.replication.emplace();
  config.replication->port = replica.port();
  config.replication->heartbeat_interval = std::chrono::milliseconds(5);
  auto gateway = std::make_unique<AdmissionGateway>(config, factory());
  for (const Job& job : instance.jobs()) (void)gateway->submit(job);

  repl::FailoverDriver driver(replica, drill_failover(), [] {});
  driver.start();

  // Node death: drain + destroy stops the heartbeats and drops the
  // session. The clock starts at the leader's last frame as the follower
  // received it — the moment its silence began.
  (void)gateway->finish();
  gateway.reset();
  const auto died =
      std::chrono::steady_clock::now() - replica.last_activity_age();
  while (!driver.circuit_broken()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto detected = std::chrono::steady_clock::now();
  driver.stop();
  replica.stop();

  // Promote the replica's logs and clock the first rendered decision.
  std::mutex mutex;
  std::condition_variable served_cv;
  bool served = false;
  std::chrono::steady_clock::time_point first_decision;
  GatewayConfig promoted_config;
  promoted_config.shards = 1;
  promoted_config.queue_capacity = 8192;
  promoted_config.batch_size = 256;
  promoted_config.wal_dir = replica_config.dir;
  promoted_config.on_decision = [&](int, const Job&, const Decision&,
                                    std::uint64_t) {
    std::lock_guard lock(mutex);
    if (!served) {
      served = true;
      first_decision = std::chrono::steady_clock::now();
      served_cv.notify_one();
    }
  };
  repl::PromotionResult promoted =
      repl::promote_replica(promoted_config, factory());
  if (!promoted.ok) {
    std::fprintf(stderr, "promotion failed: %s\n", promoted.error.c_str());
    std::exit(1);
  }
  Job probe;
  probe.id = static_cast<JobId>(1'000'000 + iteration);
  probe.release = 0.0;
  probe.proc = 1.0;
  probe.deadline = 1e9;
  (void)promoted.gateway->submit(probe);
  {
    std::unique_lock lock(mutex);
    served_cv.wait(lock, [&] { return served; });
  }
  (void)promoted.gateway->finish();
  drop_dir(leader_dir);
  drop_dir(replica_config.dir);

  FailoverSample sample;
  sample.detect_ms =
      std::chrono::duration<double, std::milli>(detected - died).count();
  sample.serve_ms =
      std::chrono::duration<double, std::milli>(first_decision - died).count();
  return sample;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

void write_json(const std::vector<ModeRun>& modes,
                const std::vector<FailoverSample>& samples) {
  std::vector<double> detect;
  std::vector<double> serve;
  for (const FailoverSample& s : samples) {
    detect.push_back(s.detect_ms);
    serve.push_back(s.serve_ms);
  }
  std::ofstream out("BENCH_repl.json");
  out << "{\n"
      << "  \"bench\": \"replication\",\n"
      << "  \"scheduler\": \"Threshold(eps=" << kEps
      << ", m=" << kMachinesPerShard << " per shard)\",\n"
      << "  \"shards\": " << kShards << ",\n"
      << bench::provenance_fields()
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeRun& r = modes[i];
    out << "    {\"mode\": \"" << r.mode << "\""
        << ", \"jobs\": " << r.jobs
        << ", \"decided\": " << r.decided
        << ", \"seconds\": " << r.seconds
        << ", \"jobs_per_sec\": " << r.jobs_per_sec
        << ", \"leader_records\": " << r.leader_records
        << ", \"follower_records\": " << r.follower_records
        << ", \"clean\": " << (r.clean ? "true" : "false") << "}"
        << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"failover\": {\n"
      << "    \"iterations\": " << samples.size() << ",\n"
      << "    \"down_threshold_ms\": "
      << drill_failover().down_threshold.count() << ",\n"
      << "    \"detect_ms_p50\": " << percentile(detect, 0.50) << ",\n"
      << "    \"detect_ms_p99\": " << percentile(detect, 0.99) << ",\n"
      << "    \"serve_ms_p50\": " << percentile(serve, 0.50) << ",\n"
      << "    \"serve_ms_p99\": " << percentile(serve, 0.99) << "\n"
      << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional override: repl_failover [jobs], default 200k per mode run;
  // smoke-test with e.g. 20000.
  std::size_t n = 200'000;
  if (argc > 1) {
    char* end = nullptr;
    n = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [jobs>0]  (got '%s')\n", argv[0],
                   argv[1]);
      return 2;
    }
  }

  std::printf("REPL: commit-log replication overhead + failover drill\n");
  std::printf("  jobs=%zu  scheduler=Threshold(eps=%.2f, m=%d/shard)  "
              "shards=%d\n\n",
              n, kEps, kMachinesPerShard, kShards);

  WorkloadConfig wconfig;
  wconfig.n = n;
  wconfig.eps = kEps;
  wconfig.arrival_rate = 4.0;
  wconfig.seed = 11;
  const Instance instance = generate_workload(wconfig);

  std::printf("  %-14s  %10s  %14s  %14s  %14s  %s\n", "mode", "seconds",
              "jobs/sec", "leader-recs", "follower-recs", "status");
  std::vector<ModeRun> modes;
  bool all_clean = true;
  for (const bool replicated : {false, true}) {
    const ModeRun run = run_mode(instance, replicated);
    std::printf("  %-14s  %10.3f  %14.0f  %14llu  %14llu  %s\n",
                run.mode.c_str(), run.seconds, run.jobs_per_sec,
                static_cast<unsigned long long>(run.leader_records),
                static_cast<unsigned long long>(run.follower_records),
                run.clean ? "clean" : "NOT CLEAN");
    all_clean = all_clean && run.clean;
    modes.push_back(run);
  }

  // The failover drill streams a smaller instance per iteration — the
  // latencies under test are detection + promotion, not replay volume.
  WorkloadConfig fconfig;
  fconfig.n = std::max<std::size_t>(n / 20, 1000);
  fconfig.eps = kEps;
  fconfig.arrival_rate = 4.0;
  fconfig.seed = 13;
  const Instance fo_instance = generate_workload(fconfig);
  constexpr int kIterations = 13;
  std::printf("\n  failover drill (%d iterations, %zu jobs each):\n",
              kIterations, fo_instance.size());
  std::vector<FailoverSample> samples;
  for (int i = 0; i < kIterations; ++i) {
    samples.push_back(run_failover_once(fo_instance, i));
  }
  std::vector<double> detect;
  std::vector<double> serve;
  for (const FailoverSample& s : samples) {
    detect.push_back(s.detect_ms);
    serve.push_back(s.serve_ms);
  }
  std::printf("    detect  p50=%.2fms  p99=%.2fms\n",
              percentile(detect, 0.50), percentile(detect, 0.99));
  std::printf("    serve   p50=%.2fms  p99=%.2fms\n",
              percentile(serve, 0.50), percentile(serve, 0.99));

  write_json(modes, samples);
  std::printf("\n  wrote BENCH_repl.json\n");

  if (!all_clean) {
    std::fprintf(stderr, "FAIL: at least one mode was not clean\n");
    return 1;
  }
  return 0;
}
