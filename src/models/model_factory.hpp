/// \file
/// One constructor for every point of the commitment-model matrix: a plain
/// config value (commit model × admission policy × ε × m × δ × queue ×
/// speed profile) that resolves to a concrete OnlineScheduler. The
/// gateway's model selector (service/gateway.hpp) and the cross-model
/// bench (bench/model_matrix.cpp) both build their schedulers here, so
/// "which model is this service running" is one server-side config value —
/// never a wire-protocol concern.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/commitment.hpp"
#include "models/delta_commit.hpp"
#include "models/speed_profile.hpp"
#include "sched/online.hpp"

namespace slacksched {

/// Admission rule used by the commit-on-arrival model.
enum class ArrivalPolicy {
  kThreshold,     ///< the paper's Algorithm 1 (requires eps > 0)
  kGreedyBestFit, ///< accept-if-feasible greedy, best-fit allocation
};

[[nodiscard]] std::string to_string(ArrivalPolicy policy);

/// One point of the commitment-model matrix.
struct ModelConfig {
  CommitModel model = CommitModel::kOnArrival;
  /// Machines per scheduler instance (per shard, behind the gateway).
  int machines = 1;
  /// Guaranteed slack (kOnArrival + kThreshold only).
  double eps = 0.1;
  /// Commit-on-arrival admission rule.
  ArrivalPolicy arrival = ArrivalPolicy::kThreshold;
  /// Deferral budget in processing times (kDelta only).
  double delta = 0.0;
  /// Queue ordering of the deferred models (kDelta, kOnAdmission).
  QueuePolicy queue = QueuePolicy::kEdf;
  /// Machine speeds; empty means identical machines.
  std::vector<double> speeds;

  /// Human-readable problems with this configuration; empty means valid.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Short matrix label, e.g. "on-arrival/threshold" or "delta(0.25)/edf".
  [[nodiscard]] std::string label() const;
};

/// Builds the scheduler this configuration describes. Throws
/// PreconditionError when validate() is non-empty.
[[nodiscard]] std::unique_ptr<OnlineScheduler> make_scheduler(
    const ModelConfig& config);

}  // namespace slacksched
