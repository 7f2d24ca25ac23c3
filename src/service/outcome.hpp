/// \file
/// The one public outcome vocabulary of the admission service. Every
/// submission attempt and rendered decision is described
/// by a single `Outcome` value with a FIXED uint8_t wire encoding shared
/// verbatim by the network protocol (net/protocol.hpp), the trace-ring
/// CSV (service/trace_ring.hpp), and the Prometheus exporter's label
/// names (service/metrics_exporter.hpp).
///
/// History: the gateway grew three overlapping enums — `SubmitStatus`
/// (gateway-level submit result), `EnqueueStatus` (shard-queue result)
/// and `TraceKind` (trace-event kind). They were collapsed here; the
/// deprecated aliases lived one release in their original headers and are
/// now gone.
///
/// Wire stability contract: the numeric values below are frozen. New
/// outcomes append after the last value; existing values are NEVER
/// renumbered or reused (a decoder from protocol version N must be able
/// to name every outcome produced by version N, and unknown higher
/// values must fail parsing loudly, not silently alias). A retired outcome
/// keeps its value and label and is never produced again.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace slacksched {

/// What happened to one job at one step of the admission pipeline.
enum class Outcome : std::uint8_t {
  kEnqueued = 0,  ///< handed to a shard queue; a decision will follow
  kAccepted = 1,  ///< decision rendered: committed (machine, start)
  kRejected = 2,  ///< decision rendered: declined by the admission policy
  kRejectedQueueFull = 3,   ///< backpressure: the routed shard queue is full
  kRejectedClosed = 4,      ///< the gateway/shard has been shut down
  kRejectedRetryAfter = 5,  ///< the job's shard is unavailable; retry later
  kFailover = 6,  ///< retired, never produced; value and label reserved
  kRejectedCriticality = 7,  ///< retired, never produced; value and label
                             ///< reserved
  /// Refused at ingest: the job lies outside the served instance class
  /// (Job::servable): a field is not finite, it is not structurally valid
  /// (proc <= 0, deadline <= release or a negative release), or it lacks
  /// the slack its shard's guarantee assumes (d < (1 + eps) p + r). No
  /// scheduler sees it.
  kRejectedInvalid = 8,
};

/// Number of defined outcomes (wire values 0..kOutcomeCount-1).
inline constexpr std::uint8_t kOutcomeCount = 9;

/// True iff `value` is a defined wire value.
[[nodiscard]] constexpr bool outcome_valid(std::uint8_t value) {
  return value < kOutcomeCount;
}

/// True iff the outcome is a rendered decision (a shard engine consulted
/// the scheduler), as opposed to an ingest result.
[[nodiscard]] constexpr bool outcome_is_decision(Outcome outcome) {
  return outcome == Outcome::kAccepted || outcome == Outcome::kRejected;
}

/// True iff the outcome terminates the job's submission attempt without a
/// decision ever being rendered (the caller may retry or re-route).
[[nodiscard]] constexpr bool outcome_is_shed(Outcome outcome) {
  return outcome == Outcome::kRejectedQueueFull ||
         outcome == Outcome::kRejectedClosed ||
         outcome == Outcome::kRejectedRetryAfter ||
         outcome == Outcome::kRejectedInvalid;
}

/// The canonical registry label: "enqueued", "accepted", "rejected",
/// "queue_full", "closed", "retry_after", "failover" (retired),
/// "criticality" (retired), "invalid". These exact strings
/// appear as the trace CSV `kind` cells and the exporter's `outcome="…"`
/// label values; they are as frozen as the numeric wire values.
[[nodiscard]] std::string_view outcome_label(Outcome outcome);

/// Inverse of outcome_label.
[[nodiscard]] std::optional<Outcome> outcome_from_label(
    std::string_view label);

/// The registry label (CSV/exporter spelling) as a std::string.
[[nodiscard]] std::string to_string(Outcome outcome);

/// Human-readable sentence for logs and error messages ("rejected: shard
/// queue full (backpressure)").
[[nodiscard]] std::string describe(Outcome outcome);

}  // namespace slacksched
