// Live serving-side counters for the admission gateway: what a provider's
// dashboard would watch while the system admits traffic. Writers are the
// gateway's producer threads (enqueue/backpressure counters) and whichever
// thread holds each shard's consumer role (decision counters: the worker,
// or a combining producer); every field is an atomic,
// so snapshot() is a lock-free read that never stalls the ingest path.
// A shard publishes its decisions at its group boundary (service/shard.hpp),
// so a decision is counted when its group is published.
//
// The per-shard decision counters are the live analogue of RunMetrics, and
// the snapshot carries the same totals the dashboard statistics of
// sched/timeline.hpp read offline off a RunResult (acceptance rate,
// accepted volume) — re-expressed over a running, sharded service instead
// of a finished single-engine replay.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/time.hpp"

namespace slacksched {

/// Log-spaced admit-latency bins covering 100 ns .. 1 s.
inline constexpr std::size_t kAdmitLatencyBins = 28;
inline constexpr double kAdmitLatencyLo = 1e-7;
inline constexpr double kAdmitLatencyHi = 1.0;

/// One shard's counters at a point in time (plain values, safe to keep).
struct ShardMetricsSnapshot {
  std::size_t enqueued = 0;     ///< jobs accepted into the shard queue
  std::size_t submitted = 0;    ///< decisions rendered by the shard engine
  std::size_t accepted = 0;
  std::size_t rejected = 0;     ///< rejected by the admission policy
  std::size_t backpressure_rejected = 0;  ///< shed at the full queue
  double accepted_volume = 0.0;
  double rejected_volume = 0.0;
  /// Sum of admit latencies over all decisions (seconds) — the exact
  /// `_sum` a Prometheus histogram exposes next to its buckets.
  double latency_sum_seconds = 0.0;
  std::size_t queue_depth = 0;  ///< jobs waiting right now
  /// High-water mark of queue_depth. The depth counter is its own atomic,
  /// bumped after each push and each pop rather than with the ring's
  /// cursors, so under concurrency the observed peak can transiently
  /// exceed the queue capacity by up to one consumer batch.
  std::size_t peak_queue_depth = 0;
  std::size_t batches = 0;           ///< consumer pops that found work
  std::size_t wal_syncs = 0;  ///< sync_batch() calls, one per WAL group

  // --- fault-tolerance counters (service/supervisor.hpp) ---
  std::size_t recoveries = 0;            ///< WAL replays / restarts completed
  std::size_t wal_records_replayed = 0;  ///< records re-applied by recovery
  std::size_t wal_truncations = 0;       ///< torn tails truncated
  std::size_t degraded_rejected = 0;  ///< refused: this shard unavailable

  [[nodiscard]] double acceptance_rate() const {
    return submitted == 0
               ? 0.0
               : static_cast<double>(accepted) / static_cast<double>(submitted);
  }
};

/// Registry-wide snapshot: per-shard rows, the aggregate row, and the
/// merged admit-latency histogram (seconds, log-spaced bins).
struct MetricsSnapshot {
  std::vector<ShardMetricsSnapshot> shards;
  /// Field-wise sum over shards, except `peak_queue_depth`, which is the
  /// MAX across shards: each shard's high-water mark was reached at its
  /// own instant, so summing them reports a backlog that never existed
  /// at any point in time. The aggregate peak answers "how deep did the
  /// worst queue get", not "what was the worst total backlog".
  ShardMetricsSnapshot total;
  Histogram admit_latency = Histogram::logarithmic(
      kAdmitLatencyLo, kAdmitLatencyHi, kAdmitLatencyBins);

  [[nodiscard]] std::string to_string() const;
};

/// Lock-free-read counter store, one cache-line-aligned slot per shard.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int shards);

  // --- writer side (producers) ---
  /// Records `count` jobs entering the shard's queue.
  void on_enqueued(int shard, std::size_t count = 1);
  void on_backpressure(int shard, std::size_t count = 1);

  // --- writer side (the holder of the shard's consumer role) ---
  void on_batch(int shard, std::size_t popped);
  /// Records one group made durable by one sync_batch().
  void on_wal_sync(int shard);
  /// Records one published decision. `latency_seconds` is queue-entry to
  /// group-publication wall time. Returns the latency bin the decision
  /// landed in so decision tracing can reuse it without a second search.
  /// Single writer per shard.
  std::size_t on_decision(int shard, double job_volume, bool accepted,
                          double latency_seconds);

  // --- writer side (recovery / ingest refusals) ---
  /// Records one completed WAL replay for the shard.
  void on_recovery(int shard, std::size_t records_replayed, bool truncated);
  /// Records jobs refused with retry_after because their shard was
  /// unavailable.
  void on_degraded_reject(int shard, std::size_t count = 1);

  [[nodiscard]] int shards() const { return shard_count_; }

  /// Point-in-time copy of every counter. Reads are relaxed atomics: the
  /// snapshot is internally consistent per counter, not a cross-counter
  /// linearization (totals can be mid-update by one job) — exactly the
  /// guarantee a live dashboard needs. `submitted` is accepted +
  /// rejected.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The latency bin (0..kAdmitLatencyBins-1) a decision latency falls
  /// into; out-of-range latencies clamp into the edge bins (the merged
  /// histogram's top bin plays the Prometheus +Inf bucket's role). Also
  /// the bin recorded in trace events (service/trace_ring.hpp).
  [[nodiscard]] std::size_t latency_bin(double seconds) const;

 private:
  struct alignas(64) Slot {
    // fetch_add: many writers (producers, recovery), except batches,
    // bumped once per batch by the consumer.
    std::atomic<std::uint64_t> backpressure_rejected{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> recoveries{0};
    std::atomic<std::uint64_t> wal_records_replayed{0};
    std::atomic<std::uint64_t> wal_truncations{0};
    std::atomic<std::uint64_t> degraded_rejected{0};
    std::atomic<std::int64_t> queue_depth{0};
    std::atomic<std::uint64_t> peak_queue_depth{0};
    std::atomic<std::uint64_t> enqueued{0};
    // Single writer, the holder of the shard's consumer role (one at a
    // time: the role's release/acquire hand-over orders one holder's stores
    // before the next one's loads, and a restarted worker starts after the
    // dead one is joined): plain load+store, no locked read-modify-write.
    std::atomic<std::uint64_t> wal_syncs{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<double> accepted_volume{0.0};
    std::atomic<double> rejected_volume{0.0};
    std::atomic<double> latency_sum{0.0};
    std::array<std::atomic<std::uint64_t>, kAdmitLatencyBins> latency{};
  };

  /// The kAdmitLatencyBins + 1 bin edges, then two +inf pads so
  /// latency_bin's two compares stay inside the array.
  std::array<double, kAdmitLatencyBins + 3> latency_edges_{};
  /// Entry e: how many edges are <= the smallest double whose biased
  /// binary exponent is e (0.0 for e = 0; +inf for e = 2047, inf and NaN).
  std::array<std::uint8_t, 2048> edges_below_octave_{};
  std::unique_ptr<Slot[]> slots_;
  int shard_count_;
};

}  // namespace slacksched
