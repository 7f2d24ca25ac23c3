// Live serving-side counters for the admission gateway: what a provider's
// dashboard would watch while the system admits traffic. Writers are the
// gateway's producer threads (enqueue/backpressure counters) and each
// shard's consumer thread (decision counters); every field is an atomic,
// so snapshot() is a lock-free read that never stalls the ingest path.
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
#include "policy/criticality.hpp"

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
  /// High-water mark of queue_depth. The depth counter is maintained
  /// outside the queue's lock, so under concurrency the observed peak can
  /// transiently exceed the queue capacity by up to one consumer batch.
  std::size_t peak_queue_depth = 0;
  std::size_t batches = 0;           ///< consumer wake-ups that found work

  // --- fault-tolerance counters (service/supervisor.hpp) ---
  std::size_t recoveries = 0;            ///< WAL replays / restarts completed
  std::size_t wal_records_replayed = 0;  ///< records re-applied by recovery
  std::size_t wal_truncations = 0;       ///< torn tails truncated
  std::size_t failovers = 0;         ///< jobs rerouted away from this shard
  std::size_t degraded_rejected = 0; ///< rejected: no healthy shard available

  // --- criticality classes (policy/criticality.hpp) ---
  /// Jobs shed with kRejectedCriticality: the class-aware policy refused
  /// them under queue pressure. Sum of class_shed.
  std::size_t criticality_shed = 0;
  /// Per-class counters, indexed by the Criticality wire value.
  std::array<std::size_t, kCriticalityCount> class_enqueued{};
  std::array<std::size_t, kCriticalityCount> class_accepted{};
  std::array<std::size_t, kCriticalityCount> class_rejected{};
  std::array<std::size_t, kCriticalityCount> class_shed{};

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
  /// Per-class admit-latency bins and sums, merged across shards (same
  /// log-spaced edges as admit_latency). Plain counts: the exporter
  /// renders cumulative `le` buckets from them directly.
  std::array<std::array<std::uint64_t, kAdmitLatencyBins>, kCriticalityCount>
      class_latency_bins{};
  std::array<double, kCriticalityCount> class_latency_sum{};

  [[nodiscard]] std::string to_string() const;
};

/// Lock-free-read counter store, one cache-line-aligned slot per shard.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int shards);

  // --- writer side (producers) ---
  /// Records `count` jobs of one class entering the shard's queue.
  void on_enqueued(int shard, std::size_t count = 1,
                   Criticality criticality = Criticality::kBackground);
  void on_backpressure(int shard, std::size_t count = 1);
  /// Records one job shed by the class-aware policy (kRejectedCriticality).
  void on_class_shed(int shard, Criticality criticality);

  // --- writer side (the shard's single consumer thread) ---
  void on_batch(int shard, std::size_t popped);
  /// Records one rendered decision. `latency_seconds` is queue-entry to
  /// decision-rendered wall time; `criticality` attributes the decision to
  /// its class family. Returns the latency bin the decision landed in so
  /// decision tracing can reuse it without a second search.
  std::size_t on_decision(int shard, double job_volume, bool accepted,
                          double latency_seconds,
                          Criticality criticality = Criticality::kBackground);

  // --- writer side (recovery / supervisor / failover router) ---
  /// Records one completed WAL replay for the shard.
  void on_recovery(int shard, std::size_t records_replayed, bool truncated);
  /// Records one job routed away from its (unavailable) home shard.
  void on_failover(int home_shard, std::size_t count = 1);
  /// Records jobs rejected with retry_after because no shard was available.
  void on_degraded_reject(int home_shard, std::size_t count = 1);

  [[nodiscard]] int shards() const { return shard_count_; }

  /// Point-in-time copy of every counter. Reads are relaxed atomics: the
  /// snapshot is internally consistent per counter, not a cross-counter
  /// linearization (totals can be mid-update by one job) — exactly the
  /// guarantee a live dashboard needs. Each count is stored once, per
  /// class: the class-blind `enqueued`, `accepted`, `rejected`,
  /// `submitted` (= accepted + rejected), `latency_sum_seconds` and
  /// `admit_latency` are sums over the classes.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The latency bin (0..kAdmitLatencyBins-1) a decision latency falls
  /// into; out-of-range latencies clamp into the edge bins (the merged
  /// histogram's top bin plays the Prometheus +Inf bucket's role). Also
  /// the bin recorded in trace events (service/trace_ring.hpp).
  [[nodiscard]] std::size_t latency_bin(double seconds) const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> backpressure_rejected{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> recoveries{0};
    std::atomic<std::uint64_t> wal_records_replayed{0};
    std::atomic<std::uint64_t> wal_truncations{0};
    std::atomic<std::uint64_t> failovers{0};
    std::atomic<std::uint64_t> degraded_rejected{0};
    std::atomic<std::int64_t> queue_depth{0};
    std::atomic<std::uint64_t> peak_queue_depth{0};
    // Single-writer (the shard consumer): plain load+store suffices.
    std::atomic<double> accepted_volume{0.0};
    std::atomic<double> rejected_volume{0.0};
    // Per-criticality-class counters (policy/criticality.hpp).
    std::array<std::atomic<std::uint64_t>, kCriticalityCount> class_enqueued{};
    std::array<std::atomic<std::uint64_t>, kCriticalityCount> class_accepted{};
    std::array<std::atomic<std::uint64_t>, kCriticalityCount> class_rejected{};
    std::array<std::atomic<std::uint64_t>, kCriticalityCount> class_shed{};
    std::array<std::atomic<double>, kCriticalityCount> class_latency_sum{};
    std::array<std::array<std::atomic<std::uint64_t>, kAdmitLatencyBins>,
               kCriticalityCount>
        class_latency{};
  };

  std::vector<double> latency_edges_;  ///< kAdmitLatencyBins + 1 edges
  std::unique_ptr<Slot[]> slots_;
  int shard_count_;
};

}  // namespace slacksched
