// Synthetic workload generation.
//
// The paper evaluates through competitive analysis only; these generators
// provide the synthetic job streams for the empirical extension benches and
// the property-test sweeps. Every generated instance satisfies the slack
// condition (3) for the configured eps by construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "job/instance.hpp"

namespace slacksched {

/// Arrival process of the job stream.
enum class ArrivalModel {
  kPoisson,    ///< exponential inter-arrival times with the given rate
  kUniform,    ///< i.i.d. uniform releases over [0, horizon]
  kBursty,     ///< Poisson background plus periodic synchronized bursts
  kAllAtOnce,  ///< every job released at time 0 (the batch special case)
  kDiurnal,    ///< non-homogeneous Poisson with sinusoidal (day/night) rate
};

/// Processing-time distribution.
enum class SizeModel {
  kUniform,        ///< uniform on [size_min, size_max]
  kBoundedPareto,  ///< heavy-tailed bounded Pareto on [size_min, size_max]
  kBimodal,        ///< short jobs (size_min) or long jobs (size_max)
  kConstant,       ///< every job has size size_min
};

/// How deadlines are drawn relative to the slack guarantee.
enum class SlackModel {
  kTight,          ///< d = r + (1 + eps) p for every job
  kUniformFactor,  ///< d = r + (1 + X) p, X uniform on [eps, slack_hi]
  kMixed,          ///< half tight, half uniform (urgent vs. relaxed tiers)
};

[[nodiscard]] std::string to_string(ArrivalModel model);
[[nodiscard]] std::string to_string(SizeModel model);
[[nodiscard]] std::string to_string(SlackModel model);

/// Full description of a synthetic workload.
struct WorkloadConfig {
  std::size_t n = 1000;
  double eps = 0.1;  ///< guaranteed minimum slack

  ArrivalModel arrival = ArrivalModel::kPoisson;
  double arrival_rate = 1.0;   ///< jobs per unit time (Poisson / bursty)
  double horizon = 1000.0;     ///< release span for kUniform
  double burst_every = 100.0;  ///< burst period (kBursty)
  std::size_t burst_size = 20; ///< jobs per burst (kBursty)
  double diurnal_period = 200.0;    ///< one "day" (kDiurnal)
  double diurnal_amplitude = 0.8;   ///< rate swing in [0, 1) (kDiurnal)

  SizeModel size = SizeModel::kBoundedPareto;
  double size_min = 1.0;
  double size_max = 100.0;
  double pareto_alpha = 1.5;
  double bimodal_long_fraction = 0.1;

  SlackModel slack = SlackModel::kUniformFactor;
  double slack_hi = 1.0;  ///< upper slack factor for kUniformFactor/kMixed

  std::uint64_t seed = 1;

  /// Checks every knob against the model it parameterizes. Returns one
  /// human-readable message per problem; empty means valid.
  /// generate_workload throws a PreconditionError listing every message.
  [[nodiscard]] std::vector<std::string> validate() const;

  [[nodiscard]] std::string to_string() const;
};

/// Generates the instance described by `config`. Deterministic in the
/// seed. Throws PreconditionError listing every validate() problem.
[[nodiscard]] Instance generate_workload(const WorkloadConfig& config);

/// Named-scenario registry. Looks up a base configuration by name and
/// parameterizes it with the slack guarantee and seed; throws
/// PreconditionError (naming the known scenarios) for an unknown name.
///
///   "cloud-burst"  heavy-tailed batch mix + periodic interactive bursts
///                  (the paper's IaaS motivation)
///   "overload"     near-overload tight-slack stream, the regime where
///                  admission control decides everything
///   "diurnal"      day/night sinusoidal rate with a bimodal (interactive
///                  vs. batch) size mix
[[nodiscard]] WorkloadConfig scenario(std::string_view name, double eps,
                                      std::uint64_t seed);

/// Every name scenario() accepts, in registry order.
[[nodiscard]] std::vector<std::string> scenario_names();

}  // namespace slacksched
