/// \file
/// The single public interface implemented by every online admission
/// algorithm, across all three commitment models (models/commitment.hpp).
/// The engine (sched/engine.hpp) feeds jobs in submission order; the
/// adversary (adversary/lower_bound_game.hpp) drives the same interface
/// interactively. Commit-on-arrival schedulers answer every on_arrival with
/// a binding accept/reject; deferred-commitment schedulers may answer
/// Decision::defer() and deliver the binding decision later through
/// advance_to.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "job/job.hpp"
#include "models/commitment.hpp"
#include "models/speed_profile.hpp"
#include "sched/decision.hpp"

namespace slacksched {

/// A decision rendered after its job's arrival by a deferred-commitment
/// scheduler, stamped with the simulated time it became binding.
struct DeferredResolution {
  Job job;
  Decision decision;
  TimePoint decided_at = 0.0;
};

/// Interface of a deterministic (or internally randomized) online admission
/// algorithm. Implementations own all machine state. Jobs arrive with
/// non-decreasing release dates; on_arrival is called exactly once per job
/// at time job.release and the returned decision is binding — unless the
/// scheduler's commitment model allows deferral, in which case a deferred
/// job's binding decision is produced by advance_to.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  /// Decides the job that was just submitted (now == job.release). An
  /// accepting decision must name a machine in [0, machines()) and a start
  /// time >= job.release that respects previously committed work; the
  /// engine and validator verify this.
  virtual Decision on_arrival(const Job& job) = 0;

  /// Number of physical machines the algorithm schedules on.
  [[nodiscard]] virtual int machines() const = 0;

  /// Resets all internal state to an empty system.
  virtual void reset() = 0;

  /// Restores one previously committed allocation during crash recovery
  /// (service/recovery.hpp): bring internal state to exactly what it was
  /// after the original accepting on_arrival, without re-deciding. Called
  /// on a freshly reset() scheduler in original commit order. Returns
  /// false when the algorithm cannot reconstruct its state from the
  /// committed allocations alone (e.g. it carries hidden randomized
  /// state); recovery then fails rather than resuming with a diverged
  /// scheduler. The default is conservative: not restorable.
  virtual bool restore_commitment(const Job& job, int machine,
                                  TimePoint start) {
    (void)job;
    (void)machine;
    (void)start;
    return false;
  }

  /// Human-readable algorithm name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// The irrevocability contract this scheduler operates under. The
  /// default is the paper's model: commitment on arrival.
  [[nodiscard]] virtual CommitmentContract commitment_contract() const {
    return CommitmentContract{};
  }

  /// The machine-speed model, or nullptr for identical machines (the
  /// default). The pointed-to profile must outlive the scheduler's use.
  [[nodiscard]] virtual const SpeedProfile* speed_profile() const {
    return nullptr;
  }

  /// Advances a deferred-commitment scheduler's internal clock to `now`,
  /// appending every decision that became binding strictly before or at
  /// `now` to `resolved` in decision order. Commit-on-arrival schedulers
  /// never defer, so the default is a no-op. The engine calls this before
  /// each arrival (now = next release) and once at end of stream
  /// (now = kTimeInfinity).
  virtual void advance_to(TimePoint now,
                          std::vector<DeferredResolution>& resolved) {
    (void)now;
    (void)resolved;
  }
};

}  // namespace slacksched
