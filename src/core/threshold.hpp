/// \file
/// Algorithm 1 of the paper: the deterministic Threshold algorithm for
/// Pm | online, eps, immediate | sum p_j (1 - U_j).
///
/// On each arrival at time t the machines are indexed by decreasing
/// outstanding load l(m_1) >= ... >= l(m_m). The admission threshold is
///
///     d_lim = max_{h in {k..m}} ( t + l(m_h) * f_h )           (9),(10)
///
/// over the m - k + 1 least loaded machines, with k and the factors f_h from
/// the ratio-function recursion. A job is rejected iff its deadline is below
/// d_lim; an accepted job goes to the most loaded machine that can still
/// complete it on time (best fit) and starts right after that machine's
/// outstanding load. Theorem 2: the competitive ratio is (m f_k + 1)/k for
/// k <= 3 and at most 0.164 larger otherwise.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/frontier_set.hpp"
#include "core/ratio_function.hpp"
#include "models/speed_profile.hpp"
#include "sched/online.hpp"

namespace slacksched {

/// Configuration of the Threshold algorithm.
struct ThresholdConfig {
  double eps = 0.1;  ///< guaranteed slack of every submitted job
  int machines = 1;
  /// Force a phase index instead of the paper's k (ablation only).
  std::optional<int> k_override;
  /// Machine speeds for the related-machine extension; nullopt (or an
  /// all-unit profile) is the paper's identical-machine model, whose
  /// decision stream is pinned bit-identical to the speed-less code. With
  /// heterogeneous speeds the threshold rule is applied to the time loads
  /// unchanged (a heuristic extension — Theorem 2 is proved for identical
  /// machines only; see docs/models.md) and acceptance may fail to
  /// allocate, in which case the job is rejected.
  std::optional<SpeedProfile> speeds;
};

/// The paper's Algorithm 1. Deterministic; supports immediate commitment.
///
/// The arrival loop is sort-free and allocation-free: machine frontiers
/// live in an incrementally maintained FrontierSet, the admission threshold
/// is one pass over its position-ordered frontiers and the f factors, both
/// contiguous arrays, with an early exit once loads hit zero; best-fit
/// allocation is a binary search for the most loaded feasible machine, and
/// the commitment one insertion pass — O(log m) plus the scan and move
/// lengths per arrival instead of the O(m log m) sort the naive loop pays.
/// The decision stream is pinned byte-identical to the sort-based seed
/// implementation (tests/support/threshold_reference.hpp) by randomized
/// equivalence tests.
class ThresholdScheduler final : public OnlineScheduler {
 public:
  explicit ThresholdScheduler(const ThresholdConfig& config);

  /// Convenience: Threshold on m machines with slack eps.
  ThresholdScheduler(double eps, int machines);

  Decision on_arrival(const Job& job) override;
  [[nodiscard]] int machines() const override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double assumed_slack() const override { return config_.eps; }
  [[nodiscard]] const SpeedProfile* speed_profile() const override;

  /// Threshold's entire mutable state is the machine frontiers, so the
  /// busy-until marks restore it exactly (FrontierSet::assign).
  bool restore_frontiers(const std::vector<TimePoint>& busy_until) override;

  /// The admission threshold d_lim the algorithm would apply at time `now`
  /// in its current state (exposed for tests and the adversary analysis).
  [[nodiscard]] TimePoint deadline_threshold(TimePoint now) const;

  /// The solved ratio-function parameters for (eps, m).
  [[nodiscard]] const RatioSolution& solution() const { return solution_; }

  /// Outstanding load of every machine at time `now` (unsorted, indexed by
  /// physical machine). Exposed for analysis and the Lemma-5 property
  /// tests; the algorithm itself is driven purely through on_arrival.
  [[nodiscard]] std::vector<Duration> loads(TimePoint now) const;

 private:
  ThresholdConfig config_;
  /// c(eps, m) and the factors f_h, solved once: m is fixed.
  const RatioSolution solution_;
  /// Absolute completion time of the last committed job per machine, kept
  /// sorted incrementally (relative load order is time-invariant).
  FrontierSet frontier_;
};

/// Goldwasser & Kerbikov's optimal (2 + 1/eps)-competitive single-machine
/// algorithm with immediate commitment coincides with Algorithm 1 at m = 1
/// (Section 1.1); this factory documents that identification.
[[nodiscard]] ThresholdScheduler make_goldwasser_kerbikov(double eps);

}  // namespace slacksched
