// EXT-C: google-benchmark microbenchmarks — decision throughput of the
// online algorithms (the per-job cost an admission controller pays), the
// ratio-function solve cost, and the offline substrate costs. These bound
// the library's viability at cloud-gateway request rates.
//
// Besides the google-benchmark suite this binary runs the threshold-scaling
// comparison: the FrontierSet-based ThresholdScheduler against the retained
// seed implementation (ReferenceThresholdScheduler) at m ∈ {1..1024},
// checking the decision streams stay identical and the new hot path performs
// zero steady-state heap allocations per arrival, and writing the results to
// BENCH_threshold.json (consumed by scripts/perf_check.py in CI).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "adversary/lower_bound_game.hpp"
#include "bench_env.hpp"
#include "baselines/greedy.hpp"
#include "core/classify_select.hpp"
#include "core/ratio_function.hpp"
#include "core/threshold.hpp"
#include "offline/exact.hpp"
#include "offline/feasibility.hpp"
#include "offline/upper_bound.hpp"
#include "sched/engine.hpp"
#include "workload/generators.hpp"

#include "threshold_reference.hpp"

namespace {

/// Global heap-allocation counter backing the zero-allocation claim for the
/// arrival hot path. Relaxed atomics: the counted sections are
/// single-threaded; the atomic only guards against benchmark-library
/// worker threads racing the counter.
std::atomic<std::uint64_t> g_heap_allocs{0};

}  // namespace


namespace {

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace slacksched;

Instance bench_instance(std::size_t n, double eps, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = n;
  config.eps = eps;
  config.arrival_rate = 4.0;
  config.seed = seed;
  return generate_workload(config);
}

void BM_ThresholdDecisions(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const double eps = 0.1;
  const Instance inst = bench_instance(10000, eps, 42);
  ThresholdScheduler alg(eps, m);
  for (auto _ : state) {
    alg.reset();
    double volume = 0.0;
    for (const Job& job : inst.jobs()) {
      const Decision d = alg.on_arrival(job);
      if (d.accepted) volume += job.proc;
    }
    benchmark::DoNotOptimize(volume);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}
BENCHMARK(BM_ThresholdDecisions)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

void BM_ReferenceThresholdDecisions(benchmark::State& state) {
  // The retained seed implementation (sort per arrival): the baseline the
  // threshold-scaling section compares against.
  const int m = static_cast<int>(state.range(0));
  const double eps = 0.1;
  const Instance inst = bench_instance(10000, eps, 42);
  ReferenceThresholdScheduler alg(eps, m);
  for (auto _ : state) {
    alg.reset();
    double volume = 0.0;
    for (const Job& job : inst.jobs()) {
      const Decision d = alg.on_arrival(job);
      if (d.accepted) volume += job.proc;
    }
    benchmark::DoNotOptimize(volume);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}
BENCHMARK(BM_ReferenceThresholdDecisions)->Arg(16)->Arg(256)->Arg(1024);

void BM_GreedyDecisions(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Instance inst = bench_instance(10000, 0.1, 42);
  GreedyScheduler alg(m);
  for (auto _ : state) {
    alg.reset();
    double volume = 0.0;
    for (const Job& job : inst.jobs()) {
      const Decision d = alg.on_arrival(job);
      if (d.accepted) volume += job.proc;
    }
    benchmark::DoNotOptimize(volume);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}
BENCHMARK(BM_GreedyDecisions)->Arg(1)->Arg(16);

void BM_ClassifySelectDecisions(benchmark::State& state) {
  const Instance inst = bench_instance(10000, 0.01, 42);
  ClassifySelectConfig config;
  config.eps = 0.01;
  config.seed = 7;
  ClassifySelectScheduler alg(config);
  for (auto _ : state) {
    alg.reset();
    for (const Job& job : inst.jobs()) {
      benchmark::DoNotOptimize(alg.on_arrival(job));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}
BENCHMARK(BM_ClassifySelectDecisions);

void BM_RatioFunctionSolve(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  double eps = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RatioFunction::solve(eps, m));
    eps = eps < 0.9 ? eps * 1.7 : 0.001;  // vary the input
  }
}
BENCHMARK(BM_RatioFunctionSolve)->Arg(2)->Arg(16)->Arg(256);

void BM_FractionalUpperBound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 0.1, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(preemptive_fractional_upper_bound(inst, 4));
  }
}
BENCHMARK(BM_FractionalUpperBound)->Arg(50)->Arg(200)->Arg(800);

void BM_AdversaryGame(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  AdversaryConfig config;
  config.eps = 0.1;
  config.m = m;
  config.beta = 1e-3;
  const LowerBoundGame game(config);
  ThresholdScheduler alg(0.1, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.play(alg));
  }
}
BENCHMARK(BM_AdversaryGame)->Arg(2)->Arg(4)->Arg(8);

void BM_ExactOptimum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  WorkloadConfig config;
  config.n = n;
  config.eps = 0.1;
  config.arrival_rate = 2.0;
  config.size_min = 1.0;
  config.size_max = 8.0;
  config.slack = SlackModel::kTight;
  config.seed = 77;
  const Instance inst = generate_workload(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_optimal_load(inst, 2));
  }
}
BENCHMARK(BM_ExactOptimum)->Arg(8)->Arg(12)->Arg(14);

void BM_MigrationFeasibility(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 0.1, 3);
  const std::vector<Job> jobs(inst.jobs().begin(), inst.jobs().end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(preemptive_migration_feasible_jobs(jobs, 4));
  }
}
BENCHMARK(BM_MigrationFeasibility)->Arg(50)->Arg(200);

void BM_ScheduleIntervalFree(benchmark::State& state) {
  // Binary-search overlap checks on a long committed machine timeline.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Schedule schedule(1);
  Job job;
  job.proc = 1.0;
  job.deadline = 1e18;
  for (std::size_t i = 0; i < n; ++i) {
    job.id = static_cast<JobId>(i + 1);
    job.release = 0.0;
    schedule.commit(job, 0, 2.0 * static_cast<double>(i));
  }
  double probe = 0.0;
  for (auto _ : state) {
    probe += 1.37;
    if (probe > 2.0 * static_cast<double>(n)) probe = 0.0;
    benchmark::DoNotOptimize(schedule.interval_free(0, probe, 0.5));
  }
}
BENCHMARK(BM_ScheduleIntervalFree)->Arg(100)->Arg(10000);

void BM_WorkloadGeneration(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench_instance(n, 0.1, ++seed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WorkloadGeneration)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------------------------
// Threshold-scaling comparison (old vs. new hot path) → BENCH_threshold.json
// ---------------------------------------------------------------------------

struct ScalingRow {
  int machines = 0;
  double old_jobs_per_sec = 0.0;
  double new_jobs_per_sec = 0.0;
  double speedup = 0.0;
  bool decisions_identical = false;
  std::uint64_t new_heap_allocs = 0;  ///< steady-state, whole replayed stream
  double new_allocs_per_arrival = 0.0;
};

/// Replays the stream once; returns accepted volume so the loop cannot be
/// optimized away.
double replay(OnlineScheduler& alg, const Instance& inst) {
  alg.reset();
  double volume = 0.0;
  for (const Job& job : inst.jobs()) {
    if (alg.on_arrival(job).accepted) volume += job.proc;
  }
  return volume;
}

/// Sustained decision throughput: repeats full-stream replays until the
/// elapsed wall time passes `min_seconds` (at least one replay).
double measure_jobs_per_sec(OnlineScheduler& alg, const Instance& inst,
                            double min_seconds) {
  (void)replay(alg, inst);  // warm caches and drop one-time costs
  std::size_t passes = 0;
  double sink = 0.0;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double> elapsed{0.0};
  do {
    sink += replay(alg, inst);
    ++passes;
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < min_seconds);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(passes * inst.size()) / elapsed.count();
}

ScalingRow run_scaling_config(const Instance& inst, double eps, int machines,
                              double min_seconds) {
  ScalingRow row;
  row.machines = machines;

  ThresholdScheduler fast(eps, machines);
  ReferenceThresholdScheduler slow(eps, machines);

  // Decision-identity check: the optimized path must reproduce the seed's
  // stream bit-for-bit before its throughput number means anything.
  fast.reset();
  slow.reset();
  row.decisions_identical = true;
  for (const Job& job : inst.jobs()) {
    if (fast.on_arrival(job) != slow.on_arrival(job)) {
      row.decisions_identical = false;
      break;
    }
  }

  // Steady-state allocation count of the new path: one warm replay (the
  // schedulers preallocate at construction, so even this performs no
  // arrival-path allocations), then a counted full-stream replay.
  (void)replay(fast, inst);
  fast.reset();
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (const Job& job : inst.jobs()) {
    if (fast.on_arrival(job).accepted) sink += job.proc;
  }
  benchmark::DoNotOptimize(sink);
  row.new_heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  row.new_allocs_per_arrival = static_cast<double>(row.new_heap_allocs) /
                               static_cast<double>(inst.size());

  row.new_jobs_per_sec = measure_jobs_per_sec(fast, inst, min_seconds);
  row.old_jobs_per_sec = measure_jobs_per_sec(slow, inst, min_seconds);
  row.speedup = row.new_jobs_per_sec / row.old_jobs_per_sec;
  return row;
}

void write_threshold_json(const std::vector<ScalingRow>& rows,
                          std::size_t jobs, double eps) {
  std::ofstream out("BENCH_threshold.json");
  out << "{\n"
      << "  \"bench\": \"threshold_scaling\",\n"
      << bench::provenance_fields()
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"eps\": " << eps << ",\n"
      << "  \"old\": \"ReferenceThresholdScheduler (sort per arrival)\",\n"
      << "  \"new\": \"ThresholdScheduler (FrontierSet: position-ordered "
         "frontiers, insertion-pass update)\",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    out << "    {\"machines\": " << r.machines
        << ", \"old_jobs_per_sec\": " << r.old_jobs_per_sec
        << ", \"new_jobs_per_sec\": " << r.new_jobs_per_sec
        << ", \"speedup\": " << r.speedup << ", \"decisions_identical\": "
        << (r.decisions_identical ? "true" : "false")
        << ", \"new_heap_allocs_steady_state\": " << r.new_heap_allocs
        << ", \"new_allocs_per_arrival\": " << r.new_allocs_per_arrival << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run_threshold_scaling(std::size_t jobs) {
  constexpr double kEps = 0.1;
  constexpr double kMinSeconds = 0.2;
  const Instance inst = bench_instance(jobs, kEps, 42);

  std::printf("\nthreshold scaling: old (sort per arrival) vs new "
              "(FrontierSet), %zu jobs, eps=%.2f\n",
              jobs, kEps);
  std::printf("  %8s  %16s  %16s  %9s  %10s  %7s\n", "machines", "old jobs/s",
              "new jobs/s", "speedup", "identical", "allocs");

  std::vector<ScalingRow> rows;
  bool ok = true;
  for (const int m : {1, 4, 8, 16, 64, 256, 1024}) {
    const ScalingRow row = run_scaling_config(inst, kEps, m, kMinSeconds);
    std::printf("  %8d  %16.0f  %16.0f  %8.2fx  %10s  %7.3f\n", row.machines,
                row.old_jobs_per_sec, row.new_jobs_per_sec, row.speedup,
                row.decisions_identical ? "yes" : "NO",
                row.new_allocs_per_arrival);
    ok = ok && row.decisions_identical && row.new_heap_allocs == 0;
    rows.push_back(row);
  }
  write_threshold_json(rows, jobs, kEps);
  std::printf("  wrote BENCH_threshold.json\n");
  if (!ok) {
    std::printf("  FATAL: decision divergence or arrival-path allocation\n");
    return 1;
  }
  return 0;
}

}  // namespace

// Like BENCHMARK_MAIN(), but additionally mirrors the results to
// BENCH_micro.json (google-benchmark's JSON format) unless the caller
// already passed an explicit --benchmark_out, runs the threshold-scaling
// comparison afterwards, and writes BENCH_threshold.json.
//
// Extra (non-google-benchmark) flag, stripped before Initialize:
//   --threshold_jobs=N   stream length for the scaling section
//                        (default 20000; 0 skips the section)
int main(int argc, char** argv) {
  std::size_t threshold_jobs = 20000;
  std::vector<char*> args;
  for (char** arg = argv; arg != argv + argc; ++arg) {
    constexpr const char kFlag[] = "--threshold_jobs=";
    if (std::strncmp(*arg, kFlag, sizeof(kFlag) - 1) == 0) {
      threshold_jobs = static_cast<std::size_t>(
          std::strtoull(*arg + sizeof(kFlag) - 1, nullptr, 10));
    } else {
      args.push_back(*arg);
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  const bool has_out =
      std::any_of(args.begin(), args.end(), [](const char* arg) {
        return std::string(arg).rfind("--benchmark_out=", 0) == 0;
      });
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return threshold_jobs > 0 ? run_threshold_scaling(threshold_jobs) : 0;
}
