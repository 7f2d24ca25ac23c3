#include "service/metrics_registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>

#include "common/expects.hpp"

namespace slacksched {

namespace {

/// Relaxed single-writer accumulate: only the holder of the shard's
/// consumer role read-modify-writes these counters, so load+store (no locked RMW) is
/// race-free; readers still see each store whole.
template <class T>
void accumulate(std::atomic<T>& target, T delta) {
  target.store(target.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

/// Raises `peak` to at least `observed` under concurrent writers.
void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t observed) {
  std::uint64_t current = peak.load(std::memory_order_relaxed);
  while (observed > current &&
         !peak.compare_exchange_weak(current, observed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string MetricsSnapshot::to_string() const {
  std::ostringstream os;
  os << "shards=" << shards.size() << " submitted=" << total.submitted
     << " accepted=" << total.accepted << " rejected=" << total.rejected
     << " backpressure=" << total.backpressure_rejected
     << " volume=" << total.accepted_volume
     << " queue_depth=" << total.queue_depth
     << " recoveries=" << total.recoveries
     << " replayed=" << total.wal_records_replayed
     << " truncations=" << total.wal_truncations
     << " degraded_rejected=" << total.degraded_rejected;
  return os.str();
}

MetricsRegistry::MetricsRegistry(int shards)
    : slots_(new Slot[static_cast<std::size_t>(shards)]),
      shard_count_(shards) {
  SLACKSCHED_EXPECTS(shards >= 1);
  // Reuse Histogram's bin-edge construction so the atomic counters and the
  // snapshot histogram agree on boundaries exactly.
  const Histogram reference =
      Histogram::logarithmic(kAdmitLatencyLo, kAdmitLatencyHi,
                             kAdmitLatencyBins);
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    latency_edges_[bin] = reference.bin_range(bin).first;
  }
  latency_edges_[kAdmitLatencyBins] =
      reference.bin_range(kAdmitLatencyBins - 1).second;
  std::ranges::fill(std::span(latency_edges_).last(2),
                    std::numeric_limits<double>::infinity());
  // One merge pass over the octaves and the edges. The smallest double
  // whose biased exponent is e has the bit pattern e << 52 (0.0 for e = 0,
  // +inf for e = 2047).
  std::size_t at_or_below = 0;
  for (std::size_t e = 0; e < edges_below_octave_.size(); ++e) {
    const double lo = std::bit_cast<double>(std::uint64_t{e} << 52);
    const std::size_t below_lo = at_or_below;
    while (at_or_below <= kAdmitLatencyBins &&
           latency_edges_[at_or_below] <= lo) {
      ++at_or_below;
    }
    // Bins are 10^0.25 wide, so the octave below lo holds at most two
    // edges: latency_bin's two compares reach every one of them.
    SLACKSCHED_ENSURES(at_or_below - below_lo <= 2);
    edges_below_octave_[e] = static_cast<std::uint8_t>(at_or_below);
  }
}

void MetricsRegistry::on_enqueued(int shard, std::size_t count) {
  if (count == 0) return;
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  slot.enqueued.fetch_add(count, std::memory_order_relaxed);
  const auto depth = slot.queue_depth.fetch_add(
                         static_cast<std::int64_t>(count),
                         std::memory_order_relaxed) +
                     static_cast<std::int64_t>(count);
  raise_peak(slot.peak_queue_depth, static_cast<std::uint64_t>(depth));
}

void MetricsRegistry::on_backpressure(int shard, std::size_t count) {
  if (count == 0) return;
  slots_[static_cast<std::size_t>(shard)].backpressure_rejected.fetch_add(
      count, std::memory_order_relaxed);
}

void MetricsRegistry::on_batch(int shard, std::size_t popped) {
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  slot.batches.fetch_add(1, std::memory_order_relaxed);
  slot.queue_depth.fetch_sub(static_cast<std::int64_t>(popped),
                             std::memory_order_relaxed);
}

void MetricsRegistry::on_wal_sync(int shard) {
  std::atomic<std::uint64_t>& syncs =
      slots_[static_cast<std::size_t>(shard)].wal_syncs;
  syncs.store(syncs.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

std::size_t MetricsRegistry::on_decision(int shard, double job_volume,
                                         bool accepted,
                                         double latency_seconds) {
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  if (accepted) {
    accumulate(slot.accepted, std::uint64_t{1});
    accumulate(slot.accepted_volume, job_volume);
  } else {
    accumulate(slot.rejected, std::uint64_t{1});
    accumulate(slot.rejected_volume, job_volume);
  }
  accumulate(slot.latency_sum, latency_seconds);
  const std::size_t bin = latency_bin(latency_seconds);
  accumulate(slot.latency[bin], std::uint64_t{1});
  return bin;
}

void MetricsRegistry::on_recovery(int shard, std::size_t records_replayed,
                                  bool truncated) {
  Slot& slot = slots_[static_cast<std::size_t>(shard)];
  slot.recoveries.fetch_add(1, std::memory_order_relaxed);
  slot.wal_records_replayed.fetch_add(records_replayed,
                                      std::memory_order_relaxed);
  if (truncated) {
    slot.wal_truncations.fetch_add(1, std::memory_order_relaxed);
  }
}

void MetricsRegistry::on_degraded_reject(int shard, std::size_t count) {
  if (count == 0) return;
  slots_[static_cast<std::size_t>(shard)].degraded_rejected.fetch_add(
      count, std::memory_order_relaxed);
}

std::size_t MetricsRegistry::latency_bin(double seconds) const {
  if (seconds < 0.0) return 0;
  // How many edges are <= seconds: the octave's count, then the at most
  // two edges inside the octave, compared without a branch. NaN reads
  // the inf/NaN row and fails both compares, so it lands past the top
  // edge, where std::upper_bound puts it.
  const std::size_t exponent =
      (std::bit_cast<std::uint64_t>(seconds) >> 52) & 0x7ff;
  std::size_t edges = edges_below_octave_[exponent];
  edges += static_cast<std::size_t>(latency_edges_[edges] <= seconds);
  edges += static_cast<std::size_t>(latency_edges_[edges] <= seconds);
  return std::clamp<std::size_t>(edges, 1, kAdmitLatencyBins) - 1;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.shards.resize(static_cast<std::size_t>(shard_count_));
  std::array<std::uint64_t, kAdmitLatencyBins> bins{};
  for (int shard = 0; shard < shard_count_; ++shard) {
    const Slot& slot = slots_[static_cast<std::size_t>(shard)];
    ShardMetricsSnapshot& row = snap.shards[static_cast<std::size_t>(shard)];
    row.enqueued = slot.enqueued.load(std::memory_order_relaxed);
    row.accepted = slot.accepted.load(std::memory_order_relaxed);
    row.rejected = slot.rejected.load(std::memory_order_relaxed);
    row.submitted = row.accepted + row.rejected;
    row.latency_sum_seconds = slot.latency_sum.load(std::memory_order_relaxed);
    row.backpressure_rejected =
        slot.backpressure_rejected.load(std::memory_order_relaxed);
    row.accepted_volume = slot.accepted_volume.load(std::memory_order_relaxed);
    row.rejected_volume = slot.rejected_volume.load(std::memory_order_relaxed);
    row.queue_depth = static_cast<std::size_t>(std::max<std::int64_t>(
        0, slot.queue_depth.load(std::memory_order_relaxed)));
    row.peak_queue_depth =
        slot.peak_queue_depth.load(std::memory_order_relaxed);
    row.batches = slot.batches.load(std::memory_order_relaxed);
    row.wal_syncs = slot.wal_syncs.load(std::memory_order_relaxed);
    row.recoveries = slot.recoveries.load(std::memory_order_relaxed);
    row.wal_records_replayed =
        slot.wal_records_replayed.load(std::memory_order_relaxed);
    row.wal_truncations = slot.wal_truncations.load(std::memory_order_relaxed);
    row.degraded_rejected =
        slot.degraded_rejected.load(std::memory_order_relaxed);
    for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
      bins[bin] += slot.latency[bin].load(std::memory_order_relaxed);
    }

    snap.total.enqueued += row.enqueued;
    snap.total.submitted += row.submitted;
    snap.total.accepted += row.accepted;
    snap.total.rejected += row.rejected;
    snap.total.backpressure_rejected += row.backpressure_rejected;
    snap.total.accepted_volume += row.accepted_volume;
    snap.total.rejected_volume += row.rejected_volume;
    snap.total.latency_sum_seconds += row.latency_sum_seconds;
    snap.total.queue_depth += row.queue_depth;
    // Per-shard peaks were reached at different instants: summing them
    // would overstate the aggregate. Max = the deepest any queue got.
    snap.total.peak_queue_depth =
        std::max(snap.total.peak_queue_depth, row.peak_queue_depth);
    snap.total.batches += row.batches;
    snap.total.wal_syncs += row.wal_syncs;
    snap.total.recoveries += row.recoveries;
    snap.total.wal_records_replayed += row.wal_records_replayed;
    snap.total.wal_truncations += row.wal_truncations;
    snap.total.degraded_rejected += row.degraded_rejected;
  }
  for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
    if (bins[bin] == 0) continue;
    // Exact copy of the atomic counters. Depositing a synthetic value at
    // the geometric bin center would go back through the float->bin
    // search, one ULP away from landing the count in the wrong bin.
    snap.admit_latency.add_to_bin(bin, bins[bin]);
  }
  return snap;
}

}  // namespace slacksched
