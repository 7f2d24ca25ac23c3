// RECOVERY: commit-log write amplification and crash-recovery replay rate.
//
// Measures the two costs the durability layer adds to the gateway:
//   1. append throughput under each fsync policy (never / batch) — what a
//      shard pays per accepted job;
//   2. replay rate of recover_commit_log at 1k/10k/100k records — how fast
//      a restarted shard rebuilds its committed schedule, with every
//      record CRC-checked and re-validated through validate_commitment;
// plus one torn-tail datapoint (a log ending in a partial record must
// truncate on the first recovery and replay clean on the second).
// Emits BENCH_recovery.json so scripts/perf_check.py can gate the results.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "service/commit_log.hpp"
#include "service/recovery.hpp"

namespace {

using namespace slacksched;

constexpr int kMachines = 8;

struct AppendStats {
  std::string policy;
  std::size_t records = 0;
  double seconds = 0.0;
  double records_per_sec = 0.0;
  std::uint64_t fsyncs = 0;
};

struct ReplayStats {
  std::size_t records = 0;
  double seconds = 0.0;
  double records_per_sec = 0.0;
  bool clean = false;
};

struct TornStats {
  std::size_t records_recovered = 0;
  std::size_t bytes_truncated = 0;
  bool truncated_on_first_pass = false;
  bool clean_on_second_pass = false;
};

std::string bench_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("slacksched_bench_" + name + ".wal"))
      .string();
}

/// The i-th synthetic committed allocation: machines round-robin, each
/// machine's jobs back-to-back — a legal schedule by construction, so the
/// replay-side validate_commitment never rejects.
void synthetic_record(std::size_t i, Job& job, int& machine,
                      TimePoint& start) {
  machine = static_cast<int>(i % kMachines);
  start = 1.0 * static_cast<double>(i / kMachines);
  job.id = static_cast<JobId>(i);
  job.release = start;
  job.proc = 1.0;
  job.deadline = start + 2.5;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

AppendStats bench_append(FsyncPolicy policy, std::size_t records) {
  const std::string path = bench_path("append");
  std::filesystem::remove(path);
  CommitLogConfig config;
  config.fsync = policy;

  AppendStats stats;
  stats.policy = to_string(policy);
  stats.records = records;
  const auto t0 = std::chrono::steady_clock::now();
  {
    auto log = CommitLog::open(path, kMachines, config);
    Job job;
    int machine = 0;
    TimePoint start = 0.0;
    for (std::size_t i = 0; i < records; ++i) {
      synthetic_record(i, job, machine, start);
      log->append(job, machine, start);
      // One batch boundary per 256 appends, the gateway's default shape.
      if (policy == FsyncPolicy::kBatch && (i + 1) % 256 == 0) {
        log->sync_batch();
      }
    }
    stats.fsyncs = log->fsync_count();
    log->close();
  }
  stats.seconds = seconds_since(t0);
  stats.records_per_sec =
      static_cast<double>(records) / std::max(stats.seconds, 1e-12);
  std::filesystem::remove(path);
  return stats;
}

void write_log(const std::string& path, std::size_t records) {
  std::filesystem::remove(path);
  CommitLogConfig config;
  config.fsync = FsyncPolicy::kNever;
  auto log = CommitLog::open(path, kMachines, config);
  Job job;
  int machine = 0;
  TimePoint start = 0.0;
  for (std::size_t i = 0; i < records; ++i) {
    synthetic_record(i, job, machine, start);
    log->append(job, machine, start);
  }
  log->close();
}

ReplayStats bench_replay(std::size_t records) {
  const std::string path = bench_path("replay");
  write_log(path, records);

  ReplayStats stats;
  stats.records = records;
  const auto t0 = std::chrono::steady_clock::now();
  const RecoveryResult recovered = recover_commit_log(path, kMachines);
  stats.seconds = seconds_since(t0);
  stats.records_per_sec =
      static_cast<double>(records) / std::max(stats.seconds, 1e-12);
  stats.clean = recovered.clean() && recovered.records_replayed == records &&
                recovered.schedule.job_count() == records;
  std::filesystem::remove(path);
  return stats;
}

TornStats bench_torn_tail(std::size_t records) {
  const std::string path = bench_path("torn");
  write_log(path, records);
  {
    // Tear the log: append one partial record (frame + half a payload).
    std::vector<char> record;
    Job job;
    int machine = 0;
    TimePoint start = 0.0;
    synthetic_record(records, job, machine, start);
    encode_wal_record(job, machine, start, record);
    record.resize(kWalRecordBytes / 2);
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
  }

  TornStats stats;
  const RecoveryResult first = recover_commit_log(path, kMachines);
  stats.records_recovered = first.records_replayed;
  stats.bytes_truncated = first.bytes_truncated;
  stats.truncated_on_first_pass = first.ok && first.tail_truncated &&
                                  first.records_replayed == records;
  const RecoveryResult second = recover_commit_log(path, kMachines);
  stats.clean_on_second_pass =
      second.clean() && second.records_replayed == records;
  std::filesystem::remove(path);
  return stats;
}

void write_json(const std::vector<AppendStats>& appends,
                const std::vector<ReplayStats>& replays,
                const TornStats& torn, bool clean) {
  std::ofstream out("BENCH_recovery.json");
  out << "{\n"
      << "  \"bench\": \"recovery_replay\",\n"
      << bench::provenance_fields()
      << "  \"machines\": " << kMachines << ",\n"
      << "  \"record_bytes\": " << kWalRecordBytes << ",\n"
      << "  \"append\": [\n";
  for (std::size_t i = 0; i < appends.size(); ++i) {
    const AppendStats& a = appends[i];
    out << "    {\"policy\": \"" << a.policy << "\", \"records\": "
        << a.records << ", \"seconds\": " << a.seconds
        << ", \"records_per_sec\": " << a.records_per_sec
        << ", \"fsyncs\": " << a.fsyncs << "}"
        << (i + 1 < appends.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"replay\": [\n";
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const ReplayStats& r = replays[i];
    out << "    {\"records\": " << r.records << ", \"seconds\": " << r.seconds
        << ", \"records_per_sec\": " << r.records_per_sec << ", \"clean\": "
        << (r.clean ? "true" : "false") << "}"
        << (i + 1 < replays.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"torn_tail\": {\"records_recovered\": " << torn.records_recovered
      << ", \"bytes_truncated\": " << torn.bytes_truncated
      << ", \"truncated_on_first_pass\": "
      << (torn.truncated_on_first_pass ? "true" : "false")
      << ", \"clean_on_second_pass\": "
      << (torn.clean_on_second_pass ? "true" : "false") << "},\n"
      << "  \"clean\": " << (clean ? "true" : "false") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Optional scale override: recovery_replay [max_replay_records],
  // default 100000; CI smoke runs pass e.g. 10000.
  std::size_t max_records = 100'000;
  if (argc > 1) {
    char* end = nullptr;
    max_records = std::strtoull(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || max_records < 1000) {
      std::fprintf(stderr, "usage: %s [max_replay_records>=1000]\n", argv[0]);
      return 2;
    }
  }

  std::printf("RECOVERY: commit-log append cost and replay rate\n");
  std::printf("  machines=%d  record=%zuB\n\n", kMachines, kWalRecordBytes);

  std::printf("  %-14s  %10s  %10s  %14s  %8s\n", "fsync policy", "records",
              "seconds", "records/sec", "fsyncs");
  std::vector<AppendStats> appends;
  appends.push_back(bench_append(FsyncPolicy::kNever, 200'000));
  appends.push_back(bench_append(FsyncPolicy::kBatch, 200'000));
  for (const AppendStats& a : appends) {
    std::printf("  %-14s  %10zu  %10.4f  %14.0f  %8llu\n", a.policy.c_str(),
                a.records, a.seconds, a.records_per_sec,
                static_cast<unsigned long long>(a.fsyncs));
  }

  std::printf("\n  %10s  %10s  %14s  %s\n", "records", "seconds",
              "replay/sec", "status");
  std::vector<ReplayStats> replays;
  for (const std::size_t n :
       {std::size_t{1'000}, std::size_t{10'000}, max_records}) {
    replays.push_back(bench_replay(n));
    const ReplayStats& r = replays.back();
    std::printf("  %10zu  %10.4f  %14.0f  %s\n", r.records, r.seconds,
                r.records_per_sec, r.clean ? "clean" : "NOT CLEAN");
  }

  const TornStats torn = bench_torn_tail(5'000);
  std::printf("\n  torn tail: %zu records recovered, %zu bytes truncated, "
              "first pass %s, second pass %s\n",
              torn.records_recovered, torn.bytes_truncated,
              torn.truncated_on_first_pass ? "truncated" : "FAILED",
              torn.clean_on_second_pass ? "clean" : "NOT CLEAN");

  bool clean = torn.truncated_on_first_pass && torn.clean_on_second_pass;
  for (const ReplayStats& r : replays) clean = clean && r.clean;

  write_json(appends, replays, torn, clean);
  std::printf("  wrote BENCH_recovery.json\n");
  if (!clean) {
    std::printf("  FATAL: a recovery pass was not clean\n");
    return 1;
  }
  return 0;
}
