/// \file
/// The elastic-capacity control loop: decides, per shard, when to grow the
/// machine pool and when to begin draining a machine for retirement.
///
/// The controller is a pure decision function over observed load — it owns
/// no machines and touches no scheduler. The shard's consumer thread feeds
/// it one observation per consumed batch (frontier utilization = busy
/// machines / active machines at the latest release fed, plus the shed
/// counts the producers accumulated) and applies the returned action
/// to the scheduler's elastic pool (OnlineScheduler::elastic_pool()):
///
///   kGrow   -> FrontierSet::add_machine()
///   kShrink -> FrontierSet::begin_retire(retire_candidate())
///
/// Shrink never removes capacity directly: it only marks one machine
/// *retiring* (no new commitments placed on it) and the shard finishes the
/// retirement when that machine's frontier has drained — so an accepted
/// commitment is never broken by a resize, by construction.
///
/// Hysteresis both directions: decisions are made once per full sliding
/// window of observations, the grow and shrink utilization thresholds are
/// separated by a required gap, and every applied resize arms a cooldown
/// of whole windows during which the controller stays quiet. The
/// controller is deterministic in its observation stream (no wall clock,
/// no randomness), which is what lets WAL replay reproduce the exact
/// post-resize machine count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace slacksched {

/// What the controller wants done to the shard's machine pool.
enum class CapacityAction : std::uint8_t {
  kNone,    ///< stay at the current capacity
  kGrow,    ///< add one machine
  kShrink,  ///< begin draining one machine for retirement
};

[[nodiscard]] std::string to_string(CapacityAction action);

/// Knobs of the per-shard capacity control loop.
struct CapacityControllerConfig {
  int min_machines = 1;  ///< never shrink below
  int max_machines = 64; ///< never grow above
  /// Observations (consumed batches) per decision window.
  std::size_t window = 8;
  /// Mean frontier utilization at or above which the pool grows.
  double grow_utilization = 0.9;
  /// Mean frontier utilization at or below which a machine begins
  /// retirement. Must sit below grow_utilization by at least
  /// `hysteresis_gap` or the pool would oscillate.
  double shrink_utilization = 0.4;
  /// Minimum required grow_utilization - shrink_utilization.
  double hysteresis_gap = 0.1;
  /// Shed fraction (shed jobs / offered jobs in the window) that forces
  /// growth regardless of utilization: shedding is the loudest signal
  /// that capacity, not placement, is the bottleneck.
  double grow_shed_rate = 0.01;
  /// Decision windows to stay quiet after an applied resize.
  std::size_t cooldown_windows = 2;

  /// One human-readable message per problem; empty means valid.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Per-shard sliding-window grow/shrink decider. Single-threaded by
/// design: only the shard's consumer thread observes and decides.
class CapacityController {
 public:
  explicit CapacityController(const CapacityControllerConfig& config);

  /// Feeds one observation: `busy` of `active` machines had outstanding
  /// load at observation time, and `shed` of `offered` producer-side
  /// submissions were class-shed or backpressured since the last call.
  void observe(int busy, int active, std::size_t shed, std::size_t offered);

  /// Renders a decision once a full window of observations is available
  /// (kNone otherwise, and always kNone during cooldown). `active` is the
  /// shard's current active machine count, used against the min/max
  /// bounds. Consumes the window.
  [[nodiscard]] CapacityAction decide(int active);

  /// Tells the controller its last decision was applied: arms the
  /// cooldown. (A decision the shard could not apply — e.g. a retire
  /// already in flight — must NOT arm it.)
  void on_resized();

  [[nodiscard]] const CapacityControllerConfig& config() const {
    return config_;
  }

 private:
  void reset_window();

  CapacityControllerConfig config_;
  std::size_t observations_ = 0;
  double busy_sum_ = 0.0;
  double active_sum_ = 0.0;
  std::size_t shed_sum_ = 0;
  std::size_t offered_sum_ = 0;
  std::size_t cooldown_ = 0;
};

}  // namespace slacksched
