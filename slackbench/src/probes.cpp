#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <stdexcept>

#include "core/threshold.hpp"
#include "net/protocol.hpp"
#include "replication/replica_server.hpp"
#include "replication/replicator.hpp"
#include "service/commit_log.hpp"
#include "service/recovery.hpp"

namespace slackbench {

using namespace slacksched;

namespace {

/// fsync-bound probes take this many samples, so their p99 has ten
/// samples beyond it.
constexpr int kSyncSamples = 1000;

std::string shard_file(const std::string& dir, const std::string& stem,
                       int s) {
  return dir + "/" + stem + "-" + std::to_string(s) + ".wal";
}

}  // namespace

void probe_net_codec(const Stream& stream, const Reference& ref,
                     SpanLog& log) {
  const std::size_t n = stream.run_size();
  const Job* jobs = stream.run_begin();
  std::vector<char> bytes;
  for (std::size_t i = 0; i < n; i += kSubmitBatch) {
    const std::size_t k = std::min(kSubmitBatch, n - i);
    bytes.clear();
    const std::int64_t t0 = now_ns();
    net::encode_submit_batch(bytes, i, std::span<const Job>(jobs + i, k));
    log.add("net.encode", t0, now_ns(), i, k);
  }

  // The DECISION frames the run's decisions would travel as.
  std::vector<std::int32_t> machine(n, -1);
  std::vector<double> start(n, 0.0);
  for (const auto& commits : ref.commits) {
    for (const Reference::Commit& c : commits) {
      machine[c.index] = c.machine;
      start[c.index] = c.start;
    }
  }
  constexpr std::size_t kChunk = 1024;
  net::FrameDecoder decoder;
  net::Frame frame;
  net::DecisionMsg msg;
  for (std::size_t i = 0; i < n; i += kChunk) {
    bytes.clear();
    const std::size_t end = std::min(n, i + kChunk);
    for (std::size_t j = i; j < end; ++j) {
      const bool accepted = machine[j] >= 0;
      net::encode_decision(
          bytes, {j, jobs[j].id, accepted ? Outcome::kAccepted : Outcome::kRejected,
                  machine[j], start[j]});
    }
    const std::int64_t t0 = now_ns();
    decoder.feed(bytes.data(), bytes.size());
    std::uint64_t decoded = 0;
    while (decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
      decoded += net::parse_decision(frame, msg, nullptr) ? 1 : 0;
    }
    log.add("net.decode", t0, now_ns(), i, decoded);
    if (decoded != end - i) throw std::runtime_error("decision codec probe failed");
  }
}

void probe_storage(const Stream& stream, const Reference& ref,
                   const WorkDir& work, const std::string& history_dir,
                   Metrics& layer, SpanLog& log) {
  const std::string dir = work.sub("probe");
  const Job* jobs = stream.run_begin();
  const std::uint32_t probe_span = log.open("probe.storage");

  // wal.append: every accepted run commitment, per shard, into a scratch
  // log (kNever: the append path without the disk flush).
  double appended_bytes = 0.0;
  double appended_records = 0.0;
  for (int s = 0; s < kShards; ++s) {
    const auto& commits = ref.commits[static_cast<std::size_t>(s)];
    CommitLogConfig config;
    config.fsync = FsyncPolicy::kNever;
    const std::string path = shard_file(dir, "append", s);
    auto wal = CommitLog::open(path, kMachinesPerShard, config);
    const std::int64_t t0 = now_ns();
    for (const Reference::Commit& c : commits) {
      wal->append(jobs[c.index], c.machine, c.start);
    }
    log.add("wal.append", t0, now_ns(), 0, commits.size(), probe_span);
    wal->close();
    appended_bytes += static_cast<double>(std::filesystem::file_size(path));
    appended_records += static_cast<double>(commits.size());
  }
  if (layer.count("wal.bytes_per_accepted_job") == 0) {
    layer["wal.bytes_per_accepted_job"] = appended_bytes / appended_records;
  }

  // Records one consumer wake-up commits: jobs per wake x acceptance.
  const double accepted_frac = static_cast<double>(ref.merged.accepted) /
                               static_cast<double>(ref.merged.decided);
  const auto per_wake = static_cast<std::size_t>(std::max(
      1.0, std::round(layer.at("service.jobs_per_wake") * accepted_frac)));
  const auto& source = ref.commits[0];
  std::size_t cursor = 0;
  const auto next_commit = [&]() -> const Reference::Commit& {
    const Reference::Commit& c = source[cursor];
    cursor = (cursor + 1) % source.size();
    return c;
  };

  // wal.sync_batch: kBatch flush + fsync of one wake-up's records.
  {
    CommitLogConfig config;
    config.fsync = FsyncPolicy::kBatch;
    auto wal = CommitLog::open(dir + "/sync.wal", kMachinesPerShard, config);
    for (int b = 0; b < kSyncSamples; ++b) {
      for (std::size_t r = 0; r < per_wake; ++r) {
        const Reference::Commit& c = next_commit();
        wal->append(jobs[c.index], c.machine, c.start);
      }
      const std::int64_t t0 = now_ns();
      wal->sync_batch();
      log.add("wal.sync_batch", t0, now_ns(), static_cast<std::uint64_t>(b),
              per_wake, probe_span);
    }
    wal->close();
  }

  // The history the recovery and catch-up probes read: durable's own, else
  // the log appended above.
  std::vector<std::string> history;
  for (int s = 0; s < kShards; ++s) {
    history.push_back(history_dir.empty()
                          ? shard_file(dir, "append", s)
                          : history_dir + "/shard-" + std::to_string(s) +
                                ".wal");
  }

  // recovery.replay: recover_commit_log on a copy (recovery may truncate).
  for (int s = 0; s < kShards; ++s) {
    const std::string copy = shard_file(dir, "recover", s);
    std::filesystem::copy_file(history[static_cast<std::size_t>(s)], copy);
    ThresholdScheduler scheduler(kEps, kMachinesPerShard);
    const std::int64_t t0 = now_ns();
    const RecoveryResult recovered =
        recover_commit_log(copy, kMachinesPerShard, &scheduler);
    log.add("recovery.replay", t0, now_ns(), 0, recovered.records_replayed,
            probe_span);
    if (!recovered.ok) throw std::runtime_error("recovery probe: " + recovered.error);
  }

  // replication: catch-up of the history into a fresh follower, then
  // ack-on-batch round trips of one wake-up's records each.
  repl::ReplicaServerConfig replica_config;
  replica_config.dir = work.sub("probe-replica");
  replica_config.shards = kShards;
  repl::ReplicaServer replica(replica_config);
  repl::ReplicationConfig config;
  config.port = replica.port();
  config.ack_mode = repl::ReplAckMode::kAckOnBatch;
  std::uint64_t frames = 0;
  std::vector<char> frame;
  for (int s = 0; s < kShards; ++s) {
    const std::string& path = history[static_cast<std::size_t>(s)];
    std::uint64_t seq = wal_records(path);
    repl::ShardReplicator replicator(s, config);
    const std::int64_t t0 = now_ns();
    replicator.on_open(path, kMachinesPerShard, seq);
    log.add("replication.catch_up", t0, now_ns(), 0, seq, probe_span);
    const std::uint64_t frames0 = replicator.frames_sent();
    for (int b = 0; b < kSyncSamples / kShards; ++b) {
      const std::int64_t a0 = now_ns();
      for (std::size_t r = 0; r < per_wake; ++r) {
        const Reference::Commit& c = next_commit();
        frame.clear();
        encode_wal_record(jobs[c.index], c.machine, c.start, frame);
        replicator.on_record(frame.data(), frame.size(), ++seq);
      }
      replicator.on_batch(seq);
      log.add("replication.ack", a0, now_ns(), seq, per_wake, probe_span);
    }
    frames += replicator.frames_sent() - frames0;
    replicator.on_close(seq);
    if (replica.watermark(s) != seq) {
      throw std::runtime_error("replication probe: follower behind leader");
    }
  }
  replica.stop();
  if (layer.count("replication.frames_per_batch") == 0) {
    layer["replication.frames_per_batch"] =
        static_cast<double>(frames) / (kSyncSamples / kShards * kShards);
  }
  log.close(probe_span);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(replica_config.dir);
}

}  // namespace slackbench
