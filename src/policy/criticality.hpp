/// \file
/// Criticality classes for mixed-criticality admission (the class-aware
/// policy layer; docs/service.md, "Criticality and capacity").
///
/// Every job carries one of four criticality levels, modeled on the
/// automotive QM -> ASIL ladder: under queue pressure the gateway sheds
/// low-criticality work first (service/gateway.hpp, policy/shed_policy.hpp)
/// so the classes express per-class admission SLOs, not scheduling
/// priority — once a job is admitted the paper's algorithms treat every
/// class identically, and the commitment guarantee is class-blind.
///
/// Wire/label stability: like service/outcome.hpp, the numeric values and
/// the label strings below are frozen. The default (kBackground = 0) is
/// the lowest class, so legacy instances, oracles and WAL replays — none
/// of which carry a class — decode to the exact streams they always
/// produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace slacksched {

/// How important a job's admission is relative to the rest of the stream.
enum class Criticality : std::uint8_t {
  kBackground = 0,  ///< best-effort batch work; first to shed
  kStandard = 1,    ///< ordinary interactive traffic
  kElevated = 2,    ///< latency-sensitive, revenue-bearing traffic
  kCritical = 3,    ///< must-admit: shed only with the queue truly full
};

/// Number of defined classes (values 0..kCriticalityCount-1).
inline constexpr std::uint8_t kCriticalityCount = 4;

/// True iff `value` is a defined class value.
[[nodiscard]] constexpr bool criticality_valid(std::uint8_t value) {
  return value < kCriticalityCount;
}

/// The class as an array index (0..kCriticalityCount-1), for per-class
/// counter arrays.
[[nodiscard]] constexpr std::size_t criticality_index(
    Criticality criticality) {
  return static_cast<std::size_t>(criticality);
}

/// The canonical registry label: "background", "standard", "elevated",
/// "critical". These exact strings appear as the exporter's `class="…"`
/// label values; they are as frozen as the numeric values.
[[nodiscard]] std::string_view criticality_label(Criticality criticality);

/// Inverse of criticality_label.
[[nodiscard]] std::optional<Criticality> criticality_from_label(
    std::string_view label);

/// The registry label as a std::string.
[[nodiscard]] std::string to_string(Criticality criticality);

}  // namespace slacksched
