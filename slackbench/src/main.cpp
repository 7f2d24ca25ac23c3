// slackbench: one run of one workload.
//
//   slackbench --workload inproc|wire-batch|wire-open|durable --seed N
//              --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//
// Repeats rounds (fresh service, the whole seeded stream, teardown) until S
// seconds have passed, checks every round against the sequential-engine
// reference, prints one line per round and a summary, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set (over rounds: the better quartile of a
// speed, the median of the rest); with --trace 1
// rounds alternate untraced/traced, and the metrics are the per-layer set,
// taken from the traced rounds, the layer probes and the spans. Exit code
// 0 iff every round was correct.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <sys/statfs.h>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace slackbench;

struct MetricDef {
  const char* name;
  const char* unit;
  /// Which quantile of the run's rounds is reported.
  double at = 0.5;
};

/// Speed metrics report the round at the better quartile: 0.75 for
/// higher-is-better, 0.25 for lower-is-better. On a shared host a
/// neighbour only ever slows a round down, so the better rounds read the
/// program's own speed; between runs that quartile spread less than the
/// median of the rounds (README, "Calibration").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "jobs/s", 0.75},
    {"decision_p50_us", "us", 0.25},
    {"accepted_load_frac", "fraction"},
    {"server_cpu_us_per_job", "us", 0.25},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    // End-to-end tail latency, demoted to a diagnostic: on a shared 2-vCPU
    // host its run-to-run spread exceeds any bound a regression gate can
    // use (README, "Calibration"). Taken from the untraced rounds.
    {"decision_p99_us", "us"},
    {"core.threshold_ns_per_job", "ns"},
    {"sched.feed_ns_per_job", "ns"},
    {"ingest.submit_ns_per_job", "ns"},
    {"service.jobs_per_wake", "count"},
    {"service.admit_p50_us", "us"},
    {"service.admit_p99_us", "us"},
    {"service.peak_queue_depth", "count"},
    {"service.metrics_scrape_us", "us"},
    {"process.ctx_switches_per_job", "count"},
    {"net.encode_ns_per_job", "ns"},
    {"net.decode_ns_per_reply", "ns"},
    {"net.replies_per_recv", "count"},
    {"net.wire_bytes_per_job", "bytes"},
    {"wal.append_ns_per_record", "ns"},
    {"wal.sync_batch_us_p50", "us"},
    {"wal.sync_batch_us_p99", "us"},
    {"wal.bytes_per_accepted_job", "bytes"},
    {"recovery.replay_s", "s"},
    {"recovery.records_per_s", "1/s"},
    {"replication.catch_up_s", "s"},
    {"replication.ack_us_p50", "us"},
    {"replication.ack_us_p99", "us"},
    {"replication.frames_per_batch", "count"},
    {"trace_overhead_frac", "fraction"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "slackbench: %s\nusage: slackbench --workload "
               "inproc|wire-batch|wire-open|durable --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (o.workload != "inproc" && o.workload != "wire-batch" &&
      o.workload != "wire-open" && o.workload != "durable") {
    usage("unknown workload");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// The reported value of one metric over rounds, plus quartiles.
struct Summary {
  double value = NAN;
  double q1 = NAN;
  double q3 = NAN;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> values, double at = 0.5) {
  Summary s;
  s.n = values.size();
  s.q1 = quantile(values, 0.25);
  s.value = quantile(values, at);
  s.q3 = quantile(values, 0.75);
  return s;
}

std::vector<double> collect(const std::vector<Round>& rounds, bool traced,
                            Metrics Round::*part, const std::string& name) {
  std::vector<double> values;
  for (const Round& r : rounds) {
    if (r.traced != traced) continue;
    const auto it = (r.*part).find(name);
    if (it != (r.*part).end()) values.push_back(it->second);
  }
  return values;
}

std::string filesystem_of(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      std::ostringstream out;
      out << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return out.str();
    }
  }
}

/// Per-layer values the spans give: the reference replay, the probes, and
/// the calls recorded in traced rounds.
void span_metrics(const std::vector<const SpanLog*>& logs, Metrics& layer) {
  const auto per_item = [&](const char* span) {
    return totals(logs, span).ns_per_item();
  };
  layer["core.threshold_ns_per_job"] = per_item("core.on_arrival");
  layer["sched.feed_ns_per_job"] = per_item("sched.feed");
  layer["ingest.submit_ns_per_job"] = per_item("ingest.submit");
  layer["net.encode_ns_per_job"] = per_item("net.encode");
  layer["net.decode_ns_per_reply"] = per_item("net.decode");
  layer["wal.append_ns_per_record"] = per_item("wal.append");

  SpanTotals scrape = totals(logs, "service.metrics_scrape");
  layer["service.metrics_scrape_us"] = median(scrape.durations_ns) / 1e3;
  SpanTotals sync = totals(logs, "wal.sync_batch");
  layer["wal.sync_batch_us_p50"] = quantile(sync.durations_ns, 0.50) / 1e3;
  layer["wal.sync_batch_us_p99"] = quantile(sync.durations_ns, 0.99) / 1e3;
  SpanTotals ack = totals(logs, "replication.ack");
  layer["replication.ack_us_p50"] = quantile(ack.durations_ns, 0.50) / 1e3;
  layer["replication.ack_us_p99"] = quantile(ack.durations_ns, 0.99) / 1e3;
  SpanTotals replay = totals(logs, "recovery.replay");
  layer["recovery.replay_s"] = replay.total_ns / 1e9;
  layer["recovery.records_per_s"] =
      static_cast<double>(replay.items) / (replay.total_ns / 1e9);
  layer["replication.catch_up_s"] =
      totals(logs, "replication.catch_up").total_ns / 1e9;
}

int run(const Options& o) {
  const bool wire = o.workload.rfind("wire", 0) == 0;
  pin_to_one_cpu();
  // Forked first: the server process never holds the stream.
  std::unique_ptr<ServerHost> host;
  if (wire) host = std::make_unique<ServerHost>();

  const bool durable = o.workload == "durable";
  std::size_t run_jobs = kInprocJobs;
  if (durable) run_jobs = kDurableJobs;
  if (o.workload == "wire-batch") run_jobs = kWireBatchJobs;
  if (o.workload == "wire-open") run_jobs = kOpenLightJobs + kOpenLoadedJobs;
  const Stream stream =
      make_stream(o.seed, durable ? kDurableHistoryJobs : 0, run_jobs);

  WorkDir work{(std::filesystem::path(o.work_dir) /
                std::to_string(::getpid()))
                   .string()};
  std::filesystem::create_directories(work.path);

  std::printf("slackbench %s seed=%llu seconds=%g trace=%d jobs/round=%zu "
              "fs=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, run_jobs,
              filesystem_of(work.path).c_str());

  std::unique_ptr<Workload> workload;
  if (o.workload == "inproc" || durable) {
    double prep_s = 0.0;
    workload = make_gateway_loop(stream, work, durable, &prep_s);
    if (durable) {
      std::printf("  prep_s = %.4f (history of %zu jobs, untimed)\n", prep_s,
                  stream.history);
    }
  } else if (o.workload == "wire-batch") {
    workload = make_wire_batch(stream, work, *host);
  } else {
    workload = make_wire_open(stream, work, *host);
  }

  SpanLog log(1, o.trace);
  SpanLog off(1, false);
  std::vector<Round> rounds;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  // A traced run alternates untraced and traced rounds (the pairs give the
  // tracing overhead) and needs one of each.
  while (Clock::now() < deadline || (o.trace && rounds.size() < 2)) {
    const bool traced = o.trace && rounds.size() % 2 == 1;
    rounds.push_back(workload->round(traced ? log : off));
    const Round& r = rounds.back();
    std::printf("  round %zu%s:", rounds.size(), traced ? " (traced)" : "");
    for (const auto& [k, v] : r.e2e) std::printf(" %s=%.6g", k.c_str(), v);
    for (const auto& [k, v] : r.notes) std::printf(" %s=%.6g", k.c_str(), v);
    std::printf("\n");
    std::fflush(stdout);
  }

  // The sequential reference, untimed, once per run.
  const Reference ref = compute_reference(stream, o.trace);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    attempted += rounds[i].seen.submitted;
    failed += rounds[i].seen.unanswered;
    const std::string problem = check(rounds[i].seen, ref, stream);
    if (!problem.empty()) {
      correct = false;
      std::printf("  FAIL round %zu: %s\n", i + 1, problem.c_str());
    }
  }
  std::printf("  oracle: %llu of %llu jobs accepted per round, volume %.17g "
              "(%s)\n",
              static_cast<unsigned long long>(ref.merged.accepted),
              static_cast<unsigned long long>(ref.merged.decided),
              ref.merged.accepted_volume,
              correct ? "every round identical" : "MISMATCH");
  // The single-threaded replay doubles as a yardstick of how fast the host
  // ran during this run, for reading run-to-run drift.
  std::printf("  reference replay: %.1f ns/job\n",
              static_cast<double>(ref.feed[0].end_ns - ref.feed[0].start_ns) /
                  static_cast<double>(ref.feed[0].jobs));

  Metrics reported;
  const auto print = [&](const MetricDef& def, const Summary& s) {
    std::printf("%s.%s = %.6g [%.6g, %.6g] %s (n=%zu)\n", o.workload.c_str(),
                def.name, s.value, s.q1, s.q3, def.unit, s.n);
    reported[def.name] = s.value;
  };
  if (!o.trace) {
    for (const MetricDef& def : kEndToEnd) {
      std::vector<double> values = collect(rounds, false, &Round::e2e, def.name);
      // Peak RSS is a process high-water mark that later rounds inherit
      // (and allocator arenas grow with every new set of threads), so only
      // the first round's is comparable between runs of any length.
      if (std::string(def.name) == "peak_rss_mb") values.resize(1);
      print(def, summarize(values, def.at));
    }
  } else {
    Metrics layer;
    for (const MetricDef& def : kPerLayer) {
      const std::vector<double> v = collect(rounds, true, &Round::layer, def.name);
      if (!v.empty()) layer[def.name] = median(v);
    }
    layer["decision_p99_us"] =
        median(collect(rounds, false, &Round::e2e, "decision_p99_us"));
    for (int s = 0; s < kShards; ++s) {
      const auto& f = ref.feed[static_cast<std::size_t>(s)];
      const auto& b = ref.bare[static_cast<std::size_t>(s)];
      log.add("sched.feed", f.start_ns, f.end_ns, static_cast<std::uint64_t>(s),
              f.jobs);
      log.add("core.on_arrival", b.start_ns, b.end_ns,
              static_cast<std::uint64_t>(s), b.jobs);
    }
    workload->layer_probes(ref, layer, log);
    std::vector<const SpanLog*> logs{&log};
    for (const SpanLog* l : workload->thread_logs()) logs.push_back(l);
    span_metrics(logs, layer);
    // Tracing cost: traced vs untraced rounds of this run (open loop: the
    // light-step median latency, which a closed-loop rate cannot show).
    const char* basis = o.workload == "wire-open" ? "decision_p50_us" : "jobs_per_s";
    const double untraced = median(collect(rounds, false, &Round::e2e, basis));
    const double traced = median(collect(rounds, true, &Round::e2e, basis));
    layer["trace_overhead_frac"] = o.workload == "wire-open"
                                       ? traced / untraced - 1.0
                                       : 1.0 - traced / untraced;
    for (const MetricDef& def : kPerLayer) {
      // Quartiles over the traced rounds where a round measured the value;
      // probe and span values are one number per run.
      Summary s = summarize(collect(rounds, true, &Round::layer, def.name));
      const auto it = layer.find(def.name);
      s.value = it == layer.end() ? NAN : it->second;
      if (s.n == 0) {
        s.q1 = s.q3 = s.value;
        s.n = 1;
      }
      print(def, s);
    }
    if (!o.trace_out.empty()) {
      std::filesystem::create_directories(
          std::filesystem::path(o.trace_out).parent_path());
      write_chrome_trace(o.trace_out, logs, 200'000);
      std::printf("  trace written to %s\n", o.trace_out.c_str());
    }
  }
  for (const auto& [name, value] : reported) {
    if (!std::isfinite(value)) {
      correct = false;
      std::printf("  FAIL: metric %s was not measured\n", name.c_str());
    }
  }
  std::filesystem::remove_all(work.path);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const MetricDef& def : o.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const double v = reported[def.name];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, std::isfinite(v) ? v : 0.0,
                def.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slackbench: %s\n", e.what());
    return 1;
  }
}
