/// \file
/// The commitment-model vocabulary of the scheduler matrix (docs/models.md).
///
/// The source paper studies *commitment on arrival*: the scheduler must
/// irrevocably accept or reject a job the instant it is submitted. The
/// δ-commitment framework of Chen–Eberle–Megow–Schewior–Stein (arXiv
/// 1811.08238) relaxes this: a job may be held tentative after arrival, but
/// the scheduler must commit (or definitively not have committed, which is
/// a rejection) while a guaranteed fraction of the job's window remains.
/// The weakest model, *commitment on admission*, only binds the scheduler
/// when it actually starts a job (DeltaCommitScheduler's admission mode,
/// models/delta_commit.hpp).
///
/// This header names the three models and packages each one's
/// irrevocability contract — the latest legal commitment time for a job —
/// so the validator (sched/validator.hpp) can check a decision stream
/// against the model that produced it, not just against physics.
///
/// δ parameterization. We measure the deferral budget forward from
/// arrival: under contract (kDelta, δ) a job must be decided by
///
///     τ_j = min(r_j + δ · p_j,  d_j − p_j)
///
/// i.e. at most δ processing times after release, clamped to the latest
/// start. δ = 0 collapses to commitment on arrival; δ ≥ the job's slack
/// factor collapses to commitment at the latest start, the admission
/// point. The framework paper counts the other way — commitment at the
/// latest when the remaining window is (1 + δ')·p_j — so for a job with
/// slack factor ε the two views are related by δ' = ε − δ.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/time.hpp"
#include "job/job.hpp"

namespace slacksched {

/// When an admission decision becomes irrevocable.
enum class CommitModel : std::uint8_t {
  kOnArrival = 0,    ///< decide the instant the job is submitted (the paper)
  kDelta = 1,        ///< decide within δ·p_j of arrival (arXiv 1811.08238)
  kOnAdmission = 2,  ///< decide only when the job starts (delayed commit)
};

/// Bench/report label: "on-arrival", "delta", "on-admission".
[[nodiscard]] std::string to_string(CommitModel model);

/// Inverse of to_string.
[[nodiscard]] std::optional<CommitModel> commit_model_from_label(
    std::string_view label);

/// One scheduler's irrevocability contract: the model plus its δ. The
/// engine stamps every resolved decision with the time it was rendered and
/// hands (decision, decided_at, contract) to the validator.
struct CommitmentContract {
  CommitModel model = CommitModel::kOnArrival;
  /// Deferral budget in processing times (kDelta only; ignored otherwise).
  double delta = 0.0;
  /// Fastest machine speed in the fleet the contract is checked against;
  /// 1.0 for identical machines. The latest start of a job is
  /// d_j − p_j / s_max on related machines — a slower-than-unit fleet
  /// shrinks every commitment window, a faster one extends it.
  double max_speed = 1.0;

  /// Latest time the job could still be started on the fastest machine:
  /// exactly job.latest_start() when max_speed is 1 (no division on the
  /// identical-machine path).
  [[nodiscard]] TimePoint latest_start(const Job& job) const {
    if (max_speed == 1.0) return job.latest_start();
    return job.deadline - job.proc / max_speed;
  }

  /// Latest time the contract allows the job to be committed:
  /// r_j (on arrival), min(r_j + δ·p_j, latest start) (δ-commitment), or
  /// the latest start (on admission — commitment coincides with the start).
  [[nodiscard]] TimePoint commit_deadline(const Job& job) const {
    switch (model) {
      case CommitModel::kOnArrival:
        return job.release;
      case CommitModel::kDelta:
        return std::min(job.release + delta * job.proc, latest_start(job));
      case CommitModel::kOnAdmission:
        return latest_start(job);
    }
    return job.release;
  }

  friend bool operator==(const CommitmentContract&,
                         const CommitmentContract&) = default;
};

}  // namespace slacksched
