/// \file
/// δ-commitment scheduler: the middle ground of the commitment-model
/// matrix, after the framework of Chen–Eberle–Megow–Schewior–Stein (arXiv
/// 1811.08238).
///
/// A job arriving at r_j is *tentatively* queued and must be irrevocably
/// accepted or rejected by its commitment deadline
///
///     τ_j = min(r_j + δ · p_j,  d_j − p_j)
///
/// (see models/commitment.hpp for the mapping onto the framework paper's δ').
/// In between, the scheduler runs a commitment-on-admission queue (the
/// weaker model of the early admission-control literature, e.g. Goldwasser
/// '99 and Lee '03): whenever a machine goes idle it starts the best
/// startable pending job under the configured QueuePolicy. A pending job
/// whose τ_j passes without a start is force-committed: it gets the
/// best-fit machine the commit-on-arrival greedy would pick at that
/// instant, or a binding rejection when no machine can still complete it.
///
/// The model parameters pin the two boundary equivalences the test suite
/// checks bit for bit:
///  - δ = 0: every job force-commits at its own arrival, in arrival order,
///    through the same FrontierSet::best_fit the commit-on-arrival
///    GreedyScheduler(kBestFit) uses — identical decision streams.
///  - commit_on_admission = true (τ_j = ∞): the pure admission-time queue,
///    the library's only commitment-on-admission scheduler. Its schedules
///    and accept/reject counts are pinned to the event-driven oracle in
///    tests/support/delayed_commit_reference.hpp.
///
/// Related machines: a SpeedProfile makes every occupancy computation use
/// exec time p_j / s_i; a job is dropped as expired only once not even the
/// fastest machine could complete it on time.
///
/// Deferral is delivered through the OnlineScheduler extensions:
/// on_arrival answers Decision::defer() and the binding decisions come out
/// of advance_to in decision order, stamped with their decision times, for
/// the engine to validate under the (kDelta, δ) — or kOnAdmission —
/// contract.
#pragma once

#include <string>
#include <vector>

#include "core/frontier_set.hpp"
#include "models/commitment.hpp"
#include "models/speed_profile.hpp"
#include "sched/online.hpp"

namespace slacksched {

/// Queue ordering used when a machine goes idle.
enum class QueuePolicy {
  kEdf,               ///< earliest deadline first among startable jobs
  kLargestFirst,      ///< largest processing time first (load-greedy)
  kLeastSlackFirst,   ///< smallest latest-start margin first
};

[[nodiscard]] std::string to_string(QueuePolicy policy);

/// Configuration of the δ-commitment scheduler.
struct DeltaCommitConfig {
  int machines = 1;
  /// Deferral budget in processing times: a job must be decided by
  /// min(r_j + delta * p_j, latest start). Ignored under
  /// commit_on_admission.
  double delta = 0.0;
  /// Degenerate τ_j = ∞ variant: commitment only at the start (the
  /// kOnAdmission model).
  bool commit_on_admission = false;
  /// Queue ordering used when a machine goes idle.
  QueuePolicy queue = QueuePolicy::kEdf;
  /// Machine speeds; empty means identical machines.
  std::vector<double> speeds;
};

/// Streaming δ-commitment scheduler (see file comment for the model).
class DeltaCommitScheduler final : public OnlineScheduler {
 public:
  explicit DeltaCommitScheduler(const DeltaCommitConfig& config);

  /// Convenience: δ-commitment on m identical machines.
  DeltaCommitScheduler(double delta, int machines);

  Decision on_arrival(const Job& job) override;
  [[nodiscard]] int machines() const override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] CommitmentContract commitment_contract() const override;
  [[nodiscard]] const SpeedProfile* speed_profile() const override;
  void advance_to(TimePoint now,
                  std::vector<DeferredResolution>& resolved) override;

 private:
  /// Runs the event loop up to (exclusive of) `target`, resolving every
  /// decision that becomes binding strictly before it.
  void run_to(TimePoint target, std::vector<DeferredResolution>& resolved);

  /// One event-time iteration at `now`: expire, force-commit due jobs,
  /// then start idle machines — the admission queue's per-event order
  /// with the force-commit phase spliced in.
  void step(TimePoint now, std::vector<DeferredResolution>& resolved);

  /// Next internal event strictly after the clock, or kTimeInfinity.
  [[nodiscard]] TimePoint next_event_time() const;

  /// τ_j of a pending job under the configured model.
  [[nodiscard]] TimePoint commit_deadline(const Job& job) const;

  /// Latest time the job could still be started on *some* machine.
  [[nodiscard]] TimePoint last_startable(const Job& job) const;

  /// Index of the best pending job `machine` can still start at `now`
  /// under the queue policy (latest start d_j − p_j / s_i), or -1.
  [[nodiscard]] int pick_startable_on(int machine, TimePoint now) const;

  DeltaCommitConfig config_;
  SpeedProfile profile_;
  CommitmentContract contract_;
  double max_speed_ = 1.0;
  FrontierSet frontier_;
  /// Tentative jobs in arrival order.
  std::vector<Job> pending_;
  /// Decisions resolved during on_arrival's internal catch-up (a driver
  /// that skips advance_to, e.g. the adversary); handed out first by the
  /// next advance_to call.
  std::vector<DeferredResolution> stash_;
  /// The event clock: every event at or before vt_ except a pending step
  /// at exactly vt_ (dirty_) has been processed.
  TimePoint vt_ = 0.0;
  bool dirty_ = false;
};

}  // namespace slacksched
