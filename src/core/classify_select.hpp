// Corollary 1: a randomized O(log(1/eps))-competitive single-machine
// algorithm with immediate commitment, via the static-classification-and-
// select technique. The algorithm simulates Algorithm 1 on m virtual
// machines and executes, on the one real machine, exactly the jobs the
// simulation assigns to a uniformly chosen virtual machine. Every virtual
// machine's committed sequence is feasible on a single machine, so the
// commitments transfer verbatim; the expected accepted load is a 1/m
// fraction of the virtual parallel load, whose competitive ratio against
// the single-machine optimum is O(m * eps^{-1/m}) -> O(log 1/eps) for
// m ~ ln(1/eps).
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "core/threshold.hpp"
#include "sched/online.hpp"

namespace slacksched {

/// Configuration of the randomized single-machine algorithm.
struct ClassifySelectConfig {
  double eps = 0.1;
  /// Number of simulated machines; <= 0 selects the analysis choice
  /// max(1, round(ln(1/eps))).
  int virtual_machines = 0;
  std::uint64_t seed = 1;
};

/// Randomized single-machine scheduler (Corollary 1). machines() == 1.
class ClassifySelectScheduler final : public OnlineScheduler {
 public:
  explicit ClassifySelectScheduler(const ClassifySelectConfig& config);

  Decision on_arrival(const Job& job) override;
  [[nodiscard]] int machines() const override { return 1; }

  /// Re-seeds the virtual simulation and redraws the selected machine from
  /// the generator's continuing stream (deterministic across resets).
  void reset() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double assumed_slack() const override { return config_.eps; }

  /// The virtual machine currently selected (for tests).
  [[nodiscard]] int selected_machine() const { return selected_; }

  /// Number of virtual machines in the simulation.
  [[nodiscard]] int virtual_machines() const {
    return virtual_sim_.machines();
  }

 private:
  ClassifySelectConfig config_;
  ThresholdScheduler virtual_sim_;
  Rng rng_;
  int selected_ = 0;
};

/// The analysis choice of the number of virtual machines for a given eps.
[[nodiscard]] int classify_select_default_machines(double eps);

}  // namespace slacksched
