// OBS: cost of the observability layer on the admission hot path.
//
// Replays the same synthetic stream through the 4-shard gateway three
// ways — observability off, decision tracing on, tracing plus the
// background metrics publisher — with the repetitions interleaved: the
// three modes of a rep run back-to-back (rotating order), a discarded
// warmup rep absorbs cold-start effects, and the reported overhead is
// the median of the per-rep paired throughput ratios, so machine-level
// noise phases divide out. The acceptance gate (scripts/perf_check.py
// --obs-json) requires tracing to cost <3% of the baseline throughput
// and the publisher to never block ingest.
//
// The publisher mode also proves the exposition contract end to end: the
// atomically-replaced textfile left on disk after finish() must report
// exactly the GatewayResult counters (submitted_total, the +Inf latency
// bucket, and _count all equal merged.submitted), and the drained trace
// must account for every rendered decision (drained + dropped ==
// submitted) and survive a CSV round trip. Emits BENCH_obs.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "core/threshold.hpp"
#include "service/gateway.hpp"
#include "service/metrics_exporter.hpp"
#include "service/trace_ring.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;

constexpr double kEps = 0.1;
constexpr int kShards = 4;
constexpr int kMachinesPerShard = 8;
constexpr int kReps = 20;
const char* const kTextfile = "BENCH_obs_metrics.prom";

enum class Mode { kOff, kTracing, kTracingPublisher };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kTracing: return "tracing";
    case Mode::kTracingPublisher: return "tracing+publisher";
  }
  return "unknown";
}

struct RunStats {
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  bool clean = false;
  // Filled in tracing modes:
  std::size_t trace_drained = 0;
  std::uint64_t trace_dropped = 0;
  bool trace_accounted = false;
  bool trace_csv_round_trip = false;
  // Filled in the publisher mode:
  bool textfile_consistent = false;
  std::uint64_t publishes = 0;
};

/// Pushes [jobs, jobs+count) through the gateway, retrying the
/// backpressure-shed tail (hash routing keeps a retried job on its shard,
/// so the consumer always drains it eventually).
void submit_range(AdmissionGateway& gateway, const Job* jobs,
                  std::size_t count, std::size_t chunk) {
  std::vector<Outcome> statuses;
  std::vector<Job> pending;
  std::vector<Job> still_pending;
  for (std::size_t offset = 0; offset < count; offset += chunk) {
    const std::size_t n = std::min(chunk, count - offset);
    pending.assign(jobs + offset, jobs + offset + n);
    while (!pending.empty()) {
      statuses.resize(pending.size());
      const BatchSubmitResult result = gateway.submit_batch(
          std::span<const Job>(pending.data(), pending.size()), statuses);
      if (result.rejected_queue_full == 0) break;
      still_pending.clear();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (statuses[i] == Outcome::kRejectedQueueFull) {
          still_pending.push_back(pending[i]);
        }
      }
      pending.swap(still_pending);
      std::this_thread::yield();
    }
  }
}

/// Extracts the integer sample value of `name` (exact-match up to the
/// value separator) from an exposition page; -1 when absent.
long long sample_value(const std::string& page, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t at = 0;
  while ((at = page.find(needle, at)) != std::string::npos) {
    if (at == 0 || page[at - 1] == '\n') {
      return std::atoll(page.c_str() + at + needle.size());
    }
    at += needle.size();
  }
  return -1;
}

RunStats run_mode(const Instance& instance, Mode mode, unsigned producers) {
  GatewayConfig config;
  config.shards = kShards;
  config.queue_capacity = 8192;
  config.batch_size = 512;
  config.routing = RoutingPolicy::kHash;
  config.record_decisions = false;
  config.enable_tracing = mode != Mode::kOff;
  config.trace_capacity = std::size_t{1} << 12;
  if (mode == Mode::kTracingPublisher) {
    config.metrics_textfile = kTextfile;
    // Aggressive cadence (a dashboard scrapes at 1 s+): concurrent
    // snapshot+render+rename cycles race live ingest. The steady-state
    // cost fraction is per-publish-cost / period, so the period is part
    // of the measurement contract, not a free knob.
    config.metrics_period = std::chrono::milliseconds(250);
  }
  AdmissionGateway gateway(config, [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kMachinesPerShard);
  });

  const Job* jobs = instance.jobs().data();
  const std::size_t n = instance.size();
  const std::size_t per_producer = (n + producers - 1) / producers;

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      const std::size_t begin = p * per_producer;
      const std::size_t end = std::min(begin + per_producer, n);
      if (begin >= end) break;
      threads.emplace_back([&, begin, end] {
        submit_range(gateway, jobs + begin, end - begin, 1024);
      });
    }
    for (auto& t : threads) t.join();
  }
  const GatewayResult result = gateway.finish();
  const auto stop = std::chrono::steady_clock::now();

  RunStats stats;
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  stats.jobs_per_sec = static_cast<double>(n) / stats.seconds;
  stats.clean = result.clean() && result.merged.submitted == n;

  if (mode != Mode::kOff) {
    // Every rendered decision is either in the rings or counted dropped.
    const std::vector<TraceEvent> trace = gateway.drain_trace();
    for (int s = 0; s < kShards; ++s) {
      const TraceRing* ring = gateway.trace_ring(s);
      if (ring != nullptr) stats.trace_dropped += ring->dropped();
    }
    stats.trace_drained = trace.size();
    stats.trace_accounted =
        trace.size() + stats.trace_dropped == result.merged.submitted;
    // The drained window round-trips through the CSV audit format.
    std::ostringstream csv;
    write_trace_csv(csv, trace);
    std::istringstream in(csv.str());
    stats.trace_csv_round_trip = read_trace_csv(in) == trace;
  }

  if (mode == Mode::kTracingPublisher) {
    stats.publishes = gateway.metrics_publisher()->publishes();
    std::ifstream file(kTextfile, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string page = buffer.str();
    const auto submitted = static_cast<long long>(result.merged.submitted);
    stats.textfile_consistent =
        sample_value(page, "slacksched_submitted_total") == submitted &&
        sample_value(page,
                     "slacksched_admit_latency_seconds_bucket{le=\"+Inf\"}") ==
            submitted &&
        sample_value(page, "slacksched_admit_latency_seconds_count") ==
            submitted &&
        sample_value(page, "slacksched_accepted_total") ==
            static_cast<long long>(result.merged.accepted);
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  // Optional override: obs_overhead [jobs], default 400k; smoke-test with
  // a smaller count, e.g. 30000.
  std::size_t n = 400'000;
  if (argc > 1) {
    char* end = nullptr;
    n = static_cast<std::size_t>(std::strtoull(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [jobs>0]  (got '%s')\n", argv[0],
                   argv[1]);
      return 2;
    }
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned producers = cores >= 4 ? 2 : 1;

  std::printf("OBS: observability overhead on the admission hot path\n");
  std::printf("  jobs=%zu  shards=%d  scheduler=Threshold(eps=%.2f, m=%d"
              "/shard)  producers=%u  cores=%u  reps=%d (interleaved, "
              "median paired ratio)\n\n",
              n, kShards, kEps, kMachinesPerShard, producers, cores, kReps);

  WorkloadConfig wconfig;
  wconfig.n = n;
  wconfig.eps = kEps;
  wconfig.arrival_rate = 4.0;
  wconfig.seed = 7;
  const Instance instance = generate_workload(wconfig);

  const Mode modes[] = {Mode::kOff, Mode::kTracing, Mode::kTracingPublisher};
  RunStats best[3];
  // Per-rep paired ratios: the three modes of one rep run back-to-back,
  // so machine-level noise phases (shared runners drift on a scale of
  // seconds) hit them almost equally and divide out; the median across
  // reps then discards the reps a noise spike did split. This is far more
  // stable than comparing each mode's best-of throughput on busy hosts.
  std::vector<double> tracing_ratio;
  std::vector<double> publisher_ratio;
  bool all_clean = true;
  // rep -1 is a discarded warmup (page faults, allocator growth, branch
  // predictors); within a recorded rep the execution order rotates so any
  // position-in-rep bias (inherited cache state, scheduler placement) is
  // spread across all three modes instead of always favouring one.
  for (int rep = -1; rep < kReps; ++rep) {
    RunStats rep_stats[3];
    for (int slot = 0; slot < 3; ++slot) {
      const int m = (slot + std::max(rep, 0)) % 3;
      const RunStats stats = run_mode(instance, modes[m], producers);
      rep_stats[m] = stats;
      if (rep < 0) continue;
      all_clean = all_clean && stats.clean;
      if (stats.jobs_per_sec > best[m].jobs_per_sec) best[m] = stats;
      std::printf("  rep %d  %-18s  %8.3fs  %12.0f jobs/sec  %s\n", rep,
                  mode_name(modes[m]), stats.seconds, stats.jobs_per_sec,
                  stats.clean ? "clean" : "NOT CLEAN");
    }
    if (rep < 0) continue;
    tracing_ratio.push_back(rep_stats[1].jobs_per_sec /
                            rep_stats[0].jobs_per_sec);
    publisher_ratio.push_back(rep_stats[2].jobs_per_sec /
                              rep_stats[0].jobs_per_sec);
  }

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  };
  const double tracing_overhead = 1.0 - median(tracing_ratio);
  const double publisher_overhead = 1.0 - median(publisher_ratio);
  std::printf("\n  tracing overhead:            %+6.2f%%\n",
              100.0 * tracing_overhead);
  std::printf("  tracing+publisher overhead:  %+6.2f%%\n",
              100.0 * publisher_overhead);
  std::printf("  trace events: drained=%zu dropped=%llu accounted=%s "
              "csv_round_trip=%s\n",
              best[1].trace_drained,
              static_cast<unsigned long long>(best[1].trace_dropped),
              best[1].trace_accounted ? "yes" : "NO",
              best[1].trace_csv_round_trip ? "yes" : "NO");
  std::printf("  textfile: consistent=%s publishes=%llu (%s)\n",
              best[2].textfile_consistent ? "yes" : "NO",
              static_cast<unsigned long long>(best[2].publishes), kTextfile);

  {
    std::ofstream out("BENCH_obs.json");
    out << "{\n"
        << "  \"bench\": \"obs_overhead\",\n"
        << "  \"jobs\": " << n << ",\n"
        << "  \"shards\": " << kShards << ",\n"
        << bench::BenchEnv::detect(producers, /*pinned=*/false, "closed")
               .json_fields()
        << "  \"reps\": " << kReps << ",\n"
        << "  \"tracing_overhead\": " << tracing_overhead << ",\n"
        << "  \"publisher_overhead\": " << publisher_overhead << ",\n"
        << "  \"trace_accounted\": "
        << (best[1].trace_accounted ? "true" : "false") << ",\n"
        << "  \"trace_csv_round_trip\": "
        << (best[1].trace_csv_round_trip ? "true" : "false") << ",\n"
        << "  \"textfile_consistent\": "
        << (best[2].textfile_consistent ? "true" : "false") << ",\n"
        << "  \"publishes\": " << best[2].publishes << ",\n"
        << "  \"clean\": " << (all_clean ? "true" : "false") << ",\n"
        << "  \"runs\": [\n";
    for (int m = 0; m < 3; ++m) {
      out << "    {\"mode\": \"" << mode_name(modes[m])
          << "\", \"seconds\": " << best[m].seconds
          << ", \"jobs_per_sec\": " << best[m].jobs_per_sec
          << ", \"clean\": " << (best[m].clean ? "true" : "false") << "}"
          << (m + 1 < 3 ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  std::printf("  wrote BENCH_obs.json\n");

  if (!all_clean || !best[1].trace_accounted ||
      !best[1].trace_csv_round_trip || !best[2].textfile_consistent) {
    std::printf("  FATAL: an observability invariant failed\n");
    return 1;
  }
  return 0;
}
