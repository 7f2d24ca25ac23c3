/// \file
/// Incrementally maintained sorted machine frontiers — the data structure
/// behind the allocation-free admission hot path.
///
/// Every immediate-commitment algorithm in this library tracks one number
/// per machine: the absolute completion time of its last committed job (the
/// "frontier"). The outstanding load at time `now` is max(0, frontier - now),
/// a non-decreasing function of the frontier, so the *relative* order of the
/// machines by load is time-invariant: sorting the frontiers once descending
/// sorts the loads descending for every `now`. A commitment moves exactly
/// one machine to a new frontier, which re-sorts with one insertion pass
/// over the displaced range — O(distance moved) — instead of the
/// O(m log m) full sort the naive arrival loop pays.
///
/// Layout: the frontier values live in one array in sorted position
/// order, beside the machine at each position and each machine's
/// position. Every positional query (the Threshold scan, the binary
/// searches, the run-head jumps, the idle-watermark advance) reads that
/// array alone, with no id-to-value hop; a per-machine read goes through
/// the machine's position. The insertion pass shifts value, id and
/// position together.
///
/// Order and tie-breaking: machines are kept sorted by (frontier descending,
/// machine index ascending). The secondary index order reproduces, by
/// construction, the lowest-index-wins tie-breaking of a naive ascending
/// scan with a strict comparison, which the equivalence tests pin
/// decision-for-decision against the seed implementations.
///
/// Zero-load machines need one extra structure: all machines with
/// frontier <= now carry load exactly 0, and a naive scan picks the lowest
/// *index* among them regardless of their (stale) frontiers. A lazily
/// advanced idle bitset answers that min-index query in O(m/64) words
/// without disturbing the sorted order.
///
/// Related machines: an optional per-machine speed vector generalizes the
/// fit queries to execution times p/s_i. Heterogeneous speeds break the
/// monotonicity the binary searches rely on (a lighter-loaded machine can be
/// slower and therefore infeasible), so the non-uniform fit paths fall back
/// to the naive ascending index scan with strict comparisons — the exact
/// semantics the uniform fast paths are pinned against. A FrontierSet built
/// without speeds (or with every speed exactly 1) takes the original code
/// paths untouched, bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/expects.hpp"
#include "common/time.hpp"

namespace slacksched {

/// Sorted multiset of machine frontiers with insertion-pass point updates
/// and the position/feasibility queries Algorithm 1 and the greedy baselines
/// need. All storage is preallocated at construction; no member function
/// allocates, so the arrival hot path built on top is allocation-free.
class FrontierSet {
 public:
  explicit FrontierSet(int machines);

  /// Related-machine variant: machine i runs at speed `speeds[i]` > 0, so a
  /// job of processing requirement p occupies it for p / speeds[i]. An
  /// empty vector means identical machines and is bit-identical to the
  /// speed-less constructor.
  FrontierSet(int machines, std::vector<double> speeds);

  /// Returns every machine to frontier 0 (the empty system).
  void reset();

  /// Number of machines, fixed at construction.
  [[nodiscard]] int size() const { return machines_; }

  /// True iff the set was built without speeds (or with all speeds exactly
  /// 1.0 normalized away) — the identical-machine fast paths apply.
  [[nodiscard]] bool uniform_speeds() const { return speed_.empty(); }

  /// Speed of a physical machine (1.0 when uniform).
  [[nodiscard]] double speed(int machine) const;

  /// Execution time of a job with processing requirement `proc` on
  /// `machine`: p / s_i, returned as exactly `proc` when uniform.
  [[nodiscard]] Duration exec_time(int machine, Duration proc) const {
    if (speed_.empty()) return proc;
    return proc / speed_[static_cast<std::size_t>(machine)];
  }

  /// Frontier (absolute completion time of the last commitment) of a
  /// physical machine.
  [[nodiscard]] TimePoint frontier(int machine) const {
    return frontier_at(position_of(machine));
  }

  /// Machine occupying sorted position `position` (0 = largest frontier;
  /// ties ordered by ascending machine index).
  [[nodiscard]] int machine_at(int position) const {
    SLACKSCHED_EXPECTS(position >= 0 && position < machines_);
    return order_[static_cast<std::size_t>(position)];
  }

  /// Frontier at sorted position `position`.
  [[nodiscard]] TimePoint frontier_at(int position) const {
    SLACKSCHED_EXPECTS(position >= 0 && position < machines_);
    return sorted_[static_cast<std::size_t>(position)];
  }

  /// Every frontier in sorted position order (non-increasing); entry p
  /// equals frontier_at(p). For scans that walk the order front to back.
  [[nodiscard]] std::span<const TimePoint> sorted_frontiers() const {
    return sorted_;
  }

  /// Current sorted position of a physical machine.
  [[nodiscard]] int position_of(int machine) const {
    SLACKSCHED_EXPECTS(machine >= 0 && machine < machines_);
    return position_[static_cast<std::size_t>(machine)];
  }

  /// Outstanding load of a physical machine at time `now`.
  [[nodiscard]] Duration load(int machine, TimePoint now) const {
    return std::max(0.0, frontier(machine) - now);
  }

  /// Outstanding load at sorted position `position` (loads are
  /// non-increasing in the position for every `now`).
  [[nodiscard]] Duration load_at(int position, TimePoint now) const {
    return std::max(0.0, frontier_at(position) - now);
  }

  /// When a job released at `now` starts on a physical machine
  /// (start_after its frontier).
  [[nodiscard]] TimePoint start(int machine, TimePoint now) const {
    return start_after(frontier(machine), now);
  }

  /// start() for the machine at sorted position `position` (non-increasing
  /// in the position for every `now`).
  [[nodiscard]] TimePoint start_at(int position, TimePoint now) const {
    return start_after(frontier_at(position), now);
  }

  /// Moves one machine to a new frontier and restores sorted order with
  /// one insertion pass that shifts the displaced entries by one position.
  void update(int machine, TimePoint frontier);

  /// Replaces every frontier at once (crash recovery): machine i gets
  /// `frontiers[i]`, then one sort rebuilds the order and the idle bits.
  /// The result equals the set a reset() followed by one update() per
  /// machine would hold — the same order, positions and idle bits.
  /// Returns false, changing nothing, unless there is one frontier per
  /// machine.
  bool assign(const std::vector<TimePoint>& frontiers);

  /// First sorted position whose frontier is <= `value` (== size() when
  /// every frontier is larger). The suffix from this position holds the
  /// machines that are idle at time `value`.
  [[nodiscard]] int first_position_not_above(TimePoint value) const;

  /// Best-fit allocation: the machine a naive ascending scan with strict
  /// `load > best` comparison would pick — the most loaded machine that
  /// still completes a job of length `proc` released at `now` by
  /// `deadline`, lowest machine index among exact load ties. Returns -1
  /// when no machine is feasible. Uniform speeds: O(log m) binary search
  /// (feasibility is monotone in the sorted position). Heterogeneous
  /// speeds: O(m) index scan with feasibility now + load + p/s_i <=
  /// deadline. (Non-const: advances the idle bitset.)
  [[nodiscard]] int best_fit(TimePoint now, Duration proc, TimePoint deadline);

  /// Least-loaded allocation: the machine a naive ascending scan with
  /// strict `load < best` comparison would pick. Returns -1 when no
  /// machine is feasible. Uniform speeds: O(1) feasibility check (the
  /// least loaded machine is feasible iff any machine is). Heterogeneous
  /// speeds: O(m) index scan.
  [[nodiscard]] int least_loaded_fit(TimePoint now, Duration proc,
                                     TimePoint deadline);

  /// Lowest machine index among the machines idle at `now` (frontier <=
  /// now); -1 when every machine is busy. Amortized O(m/64): the idle
  /// bitset advances forward with `now` and only rebuilds on a backward
  /// query (the engine feeds non-decreasing release dates).
  [[nodiscard]] int min_idle_machine(TimePoint now);

 private:
  /// First sorted position whose frontier is strictly below `value`.
  [[nodiscard]] int first_position_below(TimePoint value) const;

  /// Lowest machine index among machines whose load at `now` equals the
  /// load at sorted position `position` (which must be the first position
  /// of its equal-frontier run). Handles the zero-load case through the
  /// idle bitset and the (floating-point corner) case of equal loads
  /// across distinct frontiers by jumping run heads.
  [[nodiscard]] int min_machine_with_load_at(int position, TimePoint now);

  void set_idle_bit(int machine, bool idle);
  void rebuild_idle_bits(TimePoint now);
  void advance_idle_watermark(TimePoint now);

  /// Naive ascending index scans used when speeds are heterogeneous and
  /// the sorted-order binary searches lose their monotonicity.
  [[nodiscard]] int best_fit_scan(TimePoint now, Duration proc,
                                  TimePoint deadline) const;
  [[nodiscard]] int least_loaded_fit_scan(TimePoint now, Duration proc,
                                          TimePoint deadline) const;

  int machines_;
  /// Per-machine speeds; empty means identical machines (all s_i = 1).
  std::vector<double> speed_;
  std::vector<TimePoint> sorted_;      ///< frontier at each sorted position
  std::vector<std::int32_t> order_;    ///< machine at each sorted position
  std::vector<std::int32_t> position_; ///< inverse of order_
  /// Bit i set iff frontier(i) <= idle_watermark_.
  std::vector<std::uint64_t> idle_bits_;
  TimePoint idle_watermark_ = 0.0;
};

}  // namespace slacksched
