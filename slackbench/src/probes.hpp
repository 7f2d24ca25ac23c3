// Per-layer probes for traced runs: calls into a layer's public functions,
// timed from the benchmark's own code on this run's stream and decisions.
// Each records spans; main derives the per-layer table from them.
#pragma once

#include <string>

#include "bench.hpp"

namespace slackbench {

/// The admission codec on this stream: encode_submit_batch(256) over the
/// run jobs ("net.encode") and FrameDecoder + parse_decision over their
/// DECISION frames ("net.decode"). For workloads without a socket.
void probe_net_codec(const Stream& stream, const Reference& ref, SpanLog& log);

/// The commit log, recovery and replication on this run's commitments:
///   wal.append             CommitLog::append of every accepted record
///   wal.sync_batch         CommitLog::sync_batch (kBatch) after each
///                          batch of records (the run's accepted per wake)
///   recovery.replay        recover_commit_log of the history (durable) or
///                          of the appended log
///   replication.catch_up   ShardReplicator::on_open against a fresh follower
///   replication.ack        on_record x k + on_batch under kAckOnBatch
/// Fills wal.bytes_per_accepted_job and replication.frames_per_batch when
/// the rounds did not measure them live.
void probe_storage(const Stream& stream, const Reference& ref,
                   const WorkDir& work, const std::string& history_dir,
                   Metrics& layer, SpanLog& log);

}  // namespace slackbench
