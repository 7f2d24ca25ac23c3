/// \file
/// Per-decision structured tracing for the admission gateway: one
/// fixed-capacity ring of TraceEvents per shard. The ring is the shard
/// queue's lock-free BoundedRing (service/bounded_queue.hpp), so the
/// holder of the shard's consumer role and the gateway's ingest refusals —
/// which run on arbitrary producer threads — can record into it
/// concurrently. Nobody
/// parks on a trace ring, so recording pays no fence. When the ring is
/// full the event is DROPPED and an atomic counter is bumped: tracing never
/// blocks or slows the decision path to preserve an event, and the drop
/// count itself is exported as a metric so operators know the window was
/// undersized.
///
/// Draining is single-consumer (the gateway after finish(), or any one
/// thread between runs). Drained events carry a globally unique `seq`
/// assigned at record time from a counter that can be shared across rings,
/// so a multi-shard trace merges into one total order with a sort.
///
/// The CSV writers at the bottom follow sched/decision_io conventions: a
/// fixed header, round-trip-exact cells, and a strict parser that rejects
/// malformed rows — a trace is an audit artifact, not best-effort output.
/// The `kind` cell uses the frozen outcome_label() registry
/// (service/outcome.hpp).
#pragma once

#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/expects.hpp"
#include "job/job.hpp"
#include "service/bounded_queue.hpp"
#include "service/commit_log.hpp"
#include "service/metrics_registry.hpp"
#include "service/outcome.hpp"

namespace slacksched {

/// Sentinel for TraceEvent::latency_bin on events that carry no latency
/// (an ingest refusal happens before any decision is rendered).
inline constexpr std::uint8_t kTraceNoLatencyBin = 0xff;
/// Sentinel for TraceEvent::fsync_class when the shard runs without a WAL.
inline constexpr std::uint8_t kTraceNoWal = 0xff;

/// One structured trace record. Fixed-size, trivially copyable: recording
/// is a struct store plus two atomic operations.
struct TraceEvent {
  std::uint64_t seq = 0;        ///< global record order (sort key)
  JobId job_id = 0;
  std::int16_t shard = -1;  ///< the router's shard, which recorded the event
  Outcome kind = Outcome::kRejected;
  /// MetricsRegistry::latency_bin of the admit latency, or
  /// kTraceNoLatencyBin for ingest refusals.
  std::uint8_t latency_bin = kTraceNoLatencyBin;
  /// FsyncPolicy of the recording shard's WAL, or kTraceNoWal.
  std::uint8_t fsync_class = kTraceNoWal;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Fixed-capacity lock-free event ring (bounded ring with drop-on-full).
class TraceRing {
 public:
  /// `capacity` must be a power of two. When `shared_seq` is non-null,
  /// record() draws event seqs from it instead of the ring's own counter —
  /// one counter across all shards yields a globally sortable trace.
  explicit TraceRing(std::size_t capacity,
                     std::atomic<std::uint64_t>* shared_seq = nullptr)
      : ring_(capacity),
        seq_source_(shared_seq != nullptr ? shared_seq : &own_seq_) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one event (its `seq` field is assigned here, after the claim,
  /// so a dropped event consumes no seq). Never blocks: returns false and
  /// bumps dropped() when the ring is full.
  bool record(TraceEvent event) {
    const std::size_t taken = ring_.try_push_batch_with(
        1, nullptr, [&](std::size_t, TraceEvent& slot) {
          event.seq = seq_source_->fetch_add(1, std::memory_order_relaxed);
          slot = event;
        });
    if (taken == 0) dropped_.fetch_add(1, std::memory_order_relaxed);
    return taken == 1;
  }

  /// Appends every currently published event to `out` in ring (FIFO claim)
  /// order and frees the cells. Single consumer only. Returns the number
  /// of events drained.
  std::size_t drain(std::vector<TraceEvent>& out) {
    const std::size_t base = out.size();
    out.resize(base + ring_.size());
    const std::size_t n =
        ring_.try_pop_batch(out.data() + base, out.size() - base).count;
    out.resize(base + n);
    return n;
  }

  /// Events refused because the ring was full (monotone counter).
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

 private:
  BoundedRing<TraceEvent> ring_;
  std::atomic<std::uint64_t> own_seq_{0};
  std::atomic<std::uint64_t>* seq_source_;
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

/// Writes `seq,job_id,shard,kind,latency_bin,fsync` rows.
inline void write_trace_csv(std::ostream& out,
                            const std::vector<TraceEvent>& events) {
  CsvWriter writer(out,
                   {"seq", "job_id", "shard", "kind", "latency_bin", "fsync"});
  for (const TraceEvent& e : events) {
    writer.row({std::to_string(e.seq), std::to_string(e.job_id),
                std::to_string(e.shard), to_string(e.kind),
                e.latency_bin == kTraceNoLatencyBin
                    ? std::string("-")
                    : std::to_string(e.latency_bin),
                e.fsync_class == kTraceNoWal
                    ? std::string("-")
                    : to_string(static_cast<FsyncPolicy>(e.fsync_class))});
  }
}

namespace detail {

/// Cell of trace csv row `r` as an Int in [lo, hi]: no sign on an
/// unsigned Int, no trailing text, no silent narrowing.
template <typename Int>
[[nodiscard]] Int trace_int(const std::string& cell, std::size_t r,
                            Int lo = std::numeric_limits<Int>::min(),
                            Int hi = std::numeric_limits<Int>::max()) {
  Int v{};
  const char* end = cell.data() + cell.size();
  const auto [stop, ec] = std::from_chars(cell.data(), end, v);
  if (ec != std::errc{} || stop != end || v < lo || v > hi) {
    throw PreconditionError("trace csv: row " + std::to_string(r) +
                            " has a malformed or out-of-range cell");
  }
  return v;
}

}  // namespace detail

/// Reads a trace written by write_trace_csv. Throws PreconditionError on
/// malformed input.
[[nodiscard]] inline std::vector<TraceEvent> read_trace_csv(
    std::istream& in) {
  const auto rows = parse_csv(in);
  if (rows.empty() ||
      rows.front() != std::vector<std::string>{"seq", "job_id", "shard",
                                               "kind", "latency_bin",
                                               "fsync"}) {
    throw PreconditionError("trace csv: missing or malformed header");
  }
  std::vector<TraceEvent> events;
  events.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& cells = rows[r];
    const auto bad_row = [r](const char* what) {
      return PreconditionError("trace csv: row " + std::to_string(r) + " has " +
                               what);
    };
    if (cells.size() != 6) throw bad_row("wrong arity");
    TraceEvent e;
    e.seq = detail::trace_int<std::uint64_t>(cells[0], r);
    e.job_id = detail::trace_int<JobId>(cells[1], r);
    e.shard = detail::trace_int<std::int16_t>(cells[2], r, 0);
    const std::optional<Outcome> kind = outcome_from_label(cells[3]);
    // Only decisions and the one recorded ingest refusal are trace kinds.
    if (!kind.has_value() || (!outcome_is_decision(*kind) &&
                              *kind != Outcome::kRejectedRetryAfter)) {
      throw bad_row("a bad kind");
    }
    e.kind = *kind;
    e.latency_bin = cells[4] == "-"
                        ? kTraceNoLatencyBin
                        : detail::trace_int<std::uint8_t>(
                              cells[4], r, 0, kAdmitLatencyBins - 1);
    if (cells[5] == "-") {
      e.fsync_class = kTraceNoWal;
    } else if (cells[5] == to_string(FsyncPolicy::kNever)) {
      e.fsync_class = static_cast<std::uint8_t>(FsyncPolicy::kNever);
    } else if (cells[5] == to_string(FsyncPolicy::kBatch)) {
      e.fsync_class = static_cast<std::uint8_t>(FsyncPolicy::kBatch);
    } else {
      throw bad_row("a bad fsync class");
    }
    events.push_back(e);
  }
  return events;
}

}  // namespace slacksched
