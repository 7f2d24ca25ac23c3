#include "service/outcome.hpp"

namespace slacksched {

std::string_view outcome_label(Outcome outcome) {
  switch (outcome) {
    case Outcome::kEnqueued: return "enqueued";
    case Outcome::kAccepted: return "accepted";
    case Outcome::kRejected: return "rejected";
    case Outcome::kRejectedQueueFull: return "queue_full";
    case Outcome::kRejectedClosed: return "closed";
    case Outcome::kRejectedRetryAfter: return "retry_after";
    case Outcome::kFailover: return "failover";
    case Outcome::kRejectedCriticality: return "criticality";
    case Outcome::kRejectedInvalid: return "invalid";
  }
  return "unknown";
}

std::optional<Outcome> outcome_from_label(std::string_view label) {
  for (std::uint8_t v = 0; v < kOutcomeCount; ++v) {
    const auto outcome = static_cast<Outcome>(v);
    if (label == outcome_label(outcome)) return outcome;
  }
  return std::nullopt;
}

std::string to_string(Outcome outcome) {
  return std::string(outcome_label(outcome));
}

std::string describe(Outcome outcome) {
  switch (outcome) {
    case Outcome::kEnqueued:
      return "enqueued";
    case Outcome::kAccepted:
      return "accepted: committed (machine, start)";
    case Outcome::kRejected:
      return "rejected by the admission policy";
    case Outcome::kRejectedQueueFull:
      return "rejected: shard queue full (backpressure)";
    case Outcome::kRejectedClosed:
      return "rejected: gateway closed";
    case Outcome::kRejectedRetryAfter:
      return "rejected: the job's shard is unavailable (retry later)";
    case Outcome::kFailover:
    case Outcome::kRejectedCriticality:
      return "retired outcome, never produced";
    case Outcome::kRejectedInvalid:
      return "rejected: the job lies outside the served instance class "
             "(a field not finite, not structurally valid, or without the "
             "slack the scheduler's guarantee assumes)";
  }
  return "unknown";
}

}  // namespace slacksched
