/// \file
/// Greedy admission baselines with immediate commitment: accept a job iff
/// some machine can still complete it on time, then allocate by a pluggable
/// policy. With best-fit allocation this is the classic greedy/list-
/// scheduling approach whose competitive ratio on parallel machines equals
/// the single-machine bound 2 + 1/eps (Kim & Chwa, cited in Fig. 1's
/// caption) — the natural comparison point for the Threshold algorithm.
///
/// Machine selection runs on the same incrementally sorted FrontierSet as
/// the Threshold hot path: best fit is a binary search for the most loaded
/// feasible machine, least-loaded is an O(1) feasibility check at the tail
/// of the maintained order, and first fit is an early-exit index scan. The
/// decision streams are pinned byte-identical to the seed linear-scan
/// implementation (tests/support/greedy_reference.hpp).
#pragma once

#include <optional>
#include <string>

#include "core/frontier_set.hpp"
#include "models/speed_profile.hpp"
#include "sched/online.hpp"

namespace slacksched {

/// How a greedy scheduler picks among candidate machines.
enum class GreedyPolicy {
  kBestFit,      ///< most loaded machine that can finish the job on time
  kFirstFit,     ///< lowest-index candidate machine
  kLeastLoaded,  ///< least loaded candidate (earliest completion)
};

[[nodiscard]] std::string to_string(GreedyPolicy policy);

/// Accept-if-feasible greedy with the given allocation policy.
class GreedyScheduler final : public OnlineScheduler {
 public:
  GreedyScheduler(int machines, GreedyPolicy policy = GreedyPolicy::kBestFit);

  /// Related-machine variant: accept iff some machine can still complete
  /// the job given its speed (exec time p / s_i). A uniform profile takes
  /// the identical-machine code paths bit for bit.
  GreedyScheduler(SpeedProfile speeds,
                  GreedyPolicy policy = GreedyPolicy::kBestFit);

  Decision on_arrival(const Job& job) override;
  [[nodiscard]] int machines() const override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const SpeedProfile* speed_profile() const override;

  /// Greedy's entire mutable state is the machine frontiers: restorable.
  bool restore_frontiers(const std::vector<TimePoint>& busy_until) override;

 private:
  GreedyPolicy policy_;
  /// Engaged only for a heterogeneous profile.
  std::optional<SpeedProfile> profile_;
  FrontierSet frontier_;
};

}  // namespace slacksched
