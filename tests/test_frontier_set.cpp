// Tests of FrontierSet, the incrementally sorted frontier structure behind
// the O(log m) admission hot path: order invariants after randomized update
// streams, and the allocation queries (best_fit / least_loaded_fit /
// min_idle_machine) pinned against naive linear-scan oracles.
#include "core/frontier_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace slacksched {
namespace {

/// Checks the full sorted-order invariant against the physical frontiers:
/// order_ is a permutation sorted by (frontier desc, machine asc) and
/// position_of is its inverse.
void expect_order_invariant(FrontierSet& set) {
  const int m = set.size();
  std::vector<bool> seen(static_cast<std::size_t>(m), false);
  for (int pos = 0; pos < m; ++pos) {
    const int machine = set.machine_at(pos);
    ASSERT_GE(machine, 0);
    ASSERT_LT(machine, m);
    EXPECT_FALSE(seen[static_cast<std::size_t>(machine)]);
    seen[static_cast<std::size_t>(machine)] = true;
    EXPECT_EQ(set.position_of(machine), pos);
    EXPECT_DOUBLE_EQ(set.frontier_at(pos), set.frontier(machine));
    if (pos > 0) {
      const int prev = set.machine_at(pos - 1);
      const bool descending = set.frontier(prev) > set.frontier(machine) ||
                              (set.frontier(prev) == set.frontier(machine) &&
                               prev < machine);
      EXPECT_TRUE(descending)
          << "positions " << pos - 1 << "," << pos << " out of order";
    }
  }
}

/// The naive best-fit scan the seed schedulers used: ascending machine
/// index, strict `load > best`, feasibility via approx_le.
int naive_best_fit(const FrontierSet& set, TimePoint now, Duration proc,
                   TimePoint deadline) {
  int best = -1;
  Duration best_load = -1.0;
  for (int i = 0; i < set.size(); ++i) {
    const Duration load = set.load(i, now);
    if (approx_le(now + load + proc, deadline) && load > best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

int naive_least_loaded_fit(const FrontierSet& set, TimePoint now,
                           Duration proc, TimePoint deadline) {
  int best = -1;
  Duration best_load = 0.0;
  for (int i = 0; i < set.size(); ++i) {
    const Duration load = set.load(i, now);
    if (!approx_le(now + load + proc, deadline)) continue;
    if (best < 0 || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

int naive_min_idle(const FrontierSet& set, TimePoint now) {
  for (int i = 0; i < set.size(); ++i) {
    if (set.frontier(i) <= now) return i;
  }
  return -1;
}

TEST(FrontierSet, StartsEmptyAndSorted) {
  FrontierSet set(4);
  EXPECT_EQ(set.size(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(set.frontier(i), 0.0);
    // All-zero frontiers tie; order falls back to ascending machine index.
    EXPECT_EQ(set.machine_at(i), i);
    EXPECT_DOUBLE_EQ(set.load(i, 0.0), 0.0);
  }
  expect_order_invariant(set);
}

TEST(FrontierSet, UpdateMovesOneMachine) {
  FrontierSet set(3);
  set.update(1, 5.0);
  EXPECT_EQ(set.machine_at(0), 1);
  EXPECT_EQ(set.machine_at(1), 0);
  EXPECT_EQ(set.machine_at(2), 2);
  set.update(2, 7.0);
  EXPECT_EQ(set.machine_at(0), 2);
  EXPECT_EQ(set.machine_at(1), 1);
  expect_order_invariant(set);
  // Shrinking a frontier moves it back down.
  set.update(2, 1.0);
  EXPECT_EQ(set.machine_at(0), 1);
  EXPECT_EQ(set.machine_at(1), 2);
  EXPECT_EQ(set.machine_at(2), 0);
  expect_order_invariant(set);
}

TEST(FrontierSet, TiesOrderByMachineIndex) {
  FrontierSet set(4);
  set.update(3, 2.0);
  set.update(1, 2.0);
  set.update(2, 2.0);
  EXPECT_EQ(set.machine_at(0), 1);
  EXPECT_EQ(set.machine_at(1), 2);
  EXPECT_EQ(set.machine_at(2), 3);
  EXPECT_EQ(set.machine_at(3), 0);
  expect_order_invariant(set);
}

TEST(FrontierSet, LoadClampsToZero) {
  FrontierSet set(2);
  set.update(0, 3.0);
  EXPECT_DOUBLE_EQ(set.load(0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(set.load(0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(set.load(0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(set.load_at(0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(set.load_at(1, 1.0), 0.0);
}

TEST(FrontierSet, LoadsDescendAtEveryPosition) {
  FrontierSet set(5);
  set.update(4, 9.0);
  set.update(0, 3.0);
  set.update(2, 6.0);
  for (const TimePoint now : {0.0, 2.0, 4.0, 7.0, 20.0}) {
    for (int pos = 1; pos < set.size(); ++pos) {
      EXPECT_LE(set.load_at(pos, now), set.load_at(pos - 1, now));
    }
  }
}

TEST(FrontierSet, FirstPositionNotAbove) {
  FrontierSet set(4);
  set.update(0, 8.0);
  set.update(1, 4.0);
  set.update(2, 4.0);
  // Sorted frontiers: 8, 4, 4, 0.
  EXPECT_EQ(set.first_position_not_above(10.0), 0);
  EXPECT_EQ(set.first_position_not_above(8.0), 0);
  EXPECT_EQ(set.first_position_not_above(7.9), 1);
  EXPECT_EQ(set.first_position_not_above(4.0), 1);
  EXPECT_EQ(set.first_position_not_above(3.0), 3);
  EXPECT_EQ(set.first_position_not_above(0.0), 3);
  EXPECT_EQ(set.first_position_not_above(-1.0), 4);
}

TEST(FrontierSet, ResetRestoresEmptySystem) {
  FrontierSet set(3);
  set.update(2, 5.0);
  set.update(0, 9.0);
  set.reset();
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(set.frontier(i), 0.0);
    EXPECT_EQ(set.machine_at(i), i);
  }
  EXPECT_EQ(set.min_idle_machine(0.0), 0);
}

TEST(FrontierSet, BestFitMatchesNaiveOnHandCases) {
  FrontierSet set(3);
  set.update(0, 6.0);
  set.update(1, 3.0);
  // Loads at t=0: {6, 3, 0}. A loose job stacks on the most loaded.
  EXPECT_EQ(set.best_fit(0.0, 1.0, 100.0), 0);
  // Deadline 5 rules out machine 0 (6+1 > 5), keeps machine 1 (3+1 <= 5).
  EXPECT_EQ(set.best_fit(0.0, 1.0, 5.0), 1);
  // Deadline 2 leaves only the idle machine.
  EXPECT_EQ(set.best_fit(0.0, 1.0, 2.0), 2);
  // Nothing fits.
  EXPECT_EQ(set.best_fit(0.0, 3.0, 2.0), -1);
}

TEST(FrontierSet, BestFitBreaksLoadTiesByLowestIndex) {
  FrontierSet set(4);
  set.update(1, 5.0);
  set.update(3, 5.0);
  // Machines 1 and 3 tie at load 5: index 1 wins, as a naive strict-`>`
  // ascending scan would pick.
  EXPECT_EQ(set.best_fit(0.0, 1.0, 100.0), 1);
  // Zero-load tie between machines 0 and 2: index 0 wins.
  EXPECT_EQ(set.best_fit(0.0, 1.0, 4.0), 0);
  // Related speeds take the linear scan; index order wins there too.
  FrontierSet related(4, {1.0, 2.0, 1.0, 2.0});
  related.update(1, 5.0);
  related.update(3, 5.0);
  EXPECT_EQ(related.best_fit(0.0, 1.0, 100.0), 1);
  EXPECT_EQ(related.best_fit(0.0, 1.0, 4.0), 0);
}

TEST(FrontierSet, MinIdleMachineAdvancesWithTime) {
  FrontierSet set(3);
  set.update(0, 4.0);
  set.update(1, 2.0);
  set.update(2, 6.0);
  EXPECT_EQ(set.min_idle_machine(0.0), -1);
  EXPECT_EQ(set.min_idle_machine(2.0), 1);
  EXPECT_EQ(set.min_idle_machine(4.0), 0);
  EXPECT_EQ(set.min_idle_machine(6.0), 0);
  // Backward query (rebuild path) still answers correctly.
  EXPECT_EQ(set.min_idle_machine(2.0), 1);
  // A commitment on the only idle machine makes the system fully busy.
  set.update(1, 10.0);
  EXPECT_EQ(set.min_idle_machine(2.0), -1);
}

TEST(FrontierSet, RejectsInvalidArguments) {
  EXPECT_THROW(FrontierSet(0), PreconditionError);
  FrontierSet set(2);
  EXPECT_THROW((void)set.frontier(-1), PreconditionError);
  EXPECT_THROW((void)set.frontier(2), PreconditionError);
  EXPECT_THROW(set.update(2, 1.0), PreconditionError);
  EXPECT_THROW((void)set.machine_at(2), PreconditionError);
}

/// Randomized oracle sweep: a long stream of commit-shaped updates at
/// non-decreasing times, with every query checked against the naive
/// linear scan and the order invariant re-verified.
class FrontierSetRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(FrontierSetRandomSweep, AgreesWithNaiveOracle) {
  const int m = GetParam();
  Rng rng(0xF5u + static_cast<std::uint64_t>(m));
  FrontierSet set(m);
  TimePoint now = 0.0;
  for (int step = 0; step < 2000; ++step) {
    now += rng.uniform(0.0, 1.5);
    const Duration proc = rng.uniform(0.1, 5.0);
    // Mix loose and tight deadlines so both accept and reject paths run.
    const TimePoint deadline =
        now + proc + (rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(0.0, 8.0)
                                                  : 1000.0);

    EXPECT_EQ(set.min_idle_machine(now), naive_min_idle(set, now));
    const int best = set.best_fit(now, proc, deadline);
    EXPECT_EQ(best, naive_best_fit(set, now, proc, deadline));
    EXPECT_EQ(set.least_loaded_fit(now, proc, deadline),
              naive_least_loaded_fit(set, now, proc, deadline));

    // Commit to the chosen machine as the schedulers would; occasionally
    // touch a random machine instead to exercise non-append moves.
    if (best >= 0 && rng.uniform(0.0, 1.0) < 0.9) {
      set.update(best, now + set.load(best, now) + proc);
    } else {
      set.update(static_cast<int>(rng.uniform_int(0, m - 1)),
                 now + rng.uniform(0.0, 6.0));
    }
    if (step % 50 == 0) expect_order_invariant(set);
  }
  expect_order_invariant(set);
}

INSTANTIATE_TEST_SUITE_P(Machines, FrontierSetRandomSweep,
                         ::testing::Values(1, 2, 3, 7, 64, 200, 1024));

/// The position-ordered frontiers against the frontiers the caller set
/// (`model`, per machine): every position holds its machine's value,
/// position_of inverts machine_at, and the order is strictly (frontier
/// descending, index ascending).
::testing::AssertionResult coherent(const FrontierSet& set,
                                    const std::vector<TimePoint>& model) {
  const std::span<const TimePoint> sorted = set.sorted_frontiers();
  if (sorted.size() != model.size()) {
    return ::testing::AssertionFailure() << "sorted_frontiers() has "
                                         << sorted.size() << " entries";
  }
  for (int p = 0; p < set.size(); ++p) {
    const int machine = set.machine_at(p);
    const TimePoint value = set.frontier_at(p);
    if (set.frontier(machine) != model[static_cast<std::size_t>(machine)]) {
      return ::testing::AssertionFailure()
             << "machine " << machine << " holds " << set.frontier(machine)
             << ", set to " << model[static_cast<std::size_t>(machine)];
    }
    if (value != set.frontier(machine) ||
        sorted[static_cast<std::size_t>(p)] != value) {
      return ::testing::AssertionFailure()
             << "position " << p << " holds " << value << " / "
             << sorted[static_cast<std::size_t>(p)] << ", its machine "
             << machine << " " << set.frontier(machine);
    }
    if (set.position_of(machine) != p) {
      return ::testing::AssertionFailure()
             << "machine " << machine << " at position " << p
             << " reports position " << set.position_of(machine);
    }
    if (p > 0) {
      const int prev = set.machine_at(p - 1);
      const TimePoint prev_value = set.frontier_at(p - 1);
      if (!(prev_value > value || (prev_value == value && prev < machine))) {
        return ::testing::AssertionFailure()
               << "positions " << p - 1 << "," << p << " hold (" << prev_value
               << ", " << prev << ") before (" << value << ", " << machine
               << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Best-fit commitments (moves toward the front), arbitrary updates that
/// also lower a frontier (moves toward the back), and the odd reset and
/// assign, with coherence checked after every one. `whole_units` draws
/// integer times and values, so many frontiers tie exactly.
void expect_coherent_stream(int m, std::uint64_t seed, bool whole_units) {
  Rng rng(seed);
  FrontierSet set(m);
  std::vector<TimePoint> model(static_cast<std::size_t>(m), 0.0);
  ASSERT_TRUE(coherent(set, model));
  TimePoint now = 0.0;
  const auto later = [&](int span) {
    return whole_units ? now + static_cast<double>(rng.uniform_int(0, span))
                       : now + rng.uniform(0.0, static_cast<double>(span));
  };
  for (int step = 0; step < 3000; ++step) {
    now = whole_units ? now + static_cast<double>(rng.uniform_int(0, 1))
                      : now + rng.uniform(0.0, 1.5);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.003) {
      set.reset();
      std::fill(model.begin(), model.end(), 0.0);
    } else if (roll < 0.006) {
      for (TimePoint& mark : model) mark = later(8);
      ASSERT_TRUE(set.assign(model));
    } else {
      const Duration proc = whole_units ? 1.0 : rng.uniform(0.1, 5.0);
      int machine = set.best_fit(now, proc, later(6) + proc);
      TimePoint value = 0.0;
      if (machine >= 0 && roll < 0.7) {
        value = now + set.load(machine, now) + proc;
      } else {
        machine = static_cast<int>(rng.uniform_int(0, m - 1));
        value = std::max(0.0, later(10) - 4.0);
      }
      set.update(machine, value);
      model[static_cast<std::size_t>(machine)] = value;
    }
    ASSERT_TRUE(coherent(set, model)) << "step " << step;
  }
}

TEST(FrontierSet, PositionOrderedFrontiersStayCoherent) {
  for (const int m : {1, 2, 8, 64, 1024}) {
    for (const bool whole_units : {false, true}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   (whole_units ? ", exact ties" : ", seeded"));
      expect_coherent_stream(m, 0xC0Au + static_cast<std::uint64_t>(m),
                             whole_units);
    }
  }
}

/// Duplicate-heavy sweep: constant processing times force large
/// equal-frontier runs, stressing the tie-breaking and run-jumping logic.
TEST(FrontierSet, ConstantSizesKeepExactTieBreaking) {
  const int m = 16;
  Rng rng(77);
  FrontierSet set(m);
  TimePoint now = 0.0;
  for (int step = 0; step < 1500; ++step) {
    if (rng.uniform(0.0, 1.0) < 0.3) now += 1.0;  // whole-unit times: ties
    const Duration proc = 1.0;
    const TimePoint deadline = now + proc + rng.uniform(0.0, 6.0);
    const int best = set.best_fit(now, proc, deadline);
    EXPECT_EQ(best, naive_best_fit(set, now, proc, deadline));
    EXPECT_EQ(set.least_loaded_fit(now, proc, deadline),
              naive_least_loaded_fit(set, now, proc, deadline));
    if (best >= 0) set.update(best, now + set.load(best, now) + proc);
  }
  expect_order_invariant(set);
}

/// Crash recovery loads the m marks in one step. The result must be the
/// set one update per commitment builds: the same order and positions,
/// and the same answers to every query as both sets take the same further
/// commitments. `whole_units` draws integer times and unit jobs, so many
/// frontiers tie exactly.
void expect_assign_matches_updates(int m, std::uint64_t seed,
                                   bool whole_units) {
  Rng rng(seed);
  FrontierSet live(m);
  TimePoint now = 0.0;
  const auto next_job = [&](Duration& proc, TimePoint& deadline) {
    now += whole_units ? static_cast<double>(rng.uniform_int(0, 1))
                       : rng.uniform(0.0, 1.5);
    proc = whole_units ? 1.0 : rng.uniform(0.1, 5.0);
    deadline = now + proc + (whole_units ? static_cast<double>(
                                               rng.uniform_int(0, 6))
                                         : rng.uniform(0.0, 8.0));
  };
  // The history, committed one best-fit placement at a time.
  for (int step = 0; step < 2000; ++step) {
    Duration proc = 0.0;
    TimePoint deadline = 0.0;
    next_job(proc, deadline);
    const int best = live.best_fit(now, proc, deadline);
    if (best >= 0) live.update(best, now + live.load(best, now) + proc);
  }
  // assign replaces whatever was there: order, positions and idle bits.
  FrontierSet loaded(m);
  for (int i = 0; i < m; ++i) loaded.update(i, 123.0 + i);
  std::vector<TimePoint> marks;
  for (int i = 0; i < m; ++i) marks.push_back(live.frontier(i));
  ASSERT_TRUE(loaded.assign(marks));
  for (int i = 0; i < m; ++i) {
    ASSERT_EQ(loaded.machine_at(i), live.machine_at(i)) << "position " << i;
    ASSERT_EQ(loaded.position_of(i), live.position_of(i)) << "machine " << i;
  }
  expect_order_invariant(loaded);
  for (int step = 0; step < 10000; ++step) {
    Duration proc = 0.0;
    TimePoint deadline = 0.0;
    next_job(proc, deadline);
    ASSERT_EQ(loaded.min_idle_machine(now), live.min_idle_machine(now))
        << "step " << step;
    ASSERT_EQ(loaded.least_loaded_fit(now, proc, deadline),
              live.least_loaded_fit(now, proc, deadline))
        << "step " << step;
    const int best = live.best_fit(now, proc, deadline);
    ASSERT_EQ(loaded.best_fit(now, proc, deadline), best) << "step " << step;
    if (best >= 0) {
      const TimePoint frontier = now + live.load(best, now) + proc;
      live.update(best, frontier);
      loaded.update(best, frontier);
    }
  }
}

TEST(FrontierSet, AssignEqualsOneUpdatePerCommitment) {
  for (const int m : {1, 2, 8, 64}) {
    for (const bool whole_units : {false, true}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   (whole_units ? ", exact ties" : ", seeded"));
      expect_assign_matches_updates(m, 0xA551u + static_cast<std::uint64_t>(m),
                                    whole_units);
    }
  }
}

TEST(FrontierSet, AssignWantsOneFrontierPerMachine) {
  FrontierSet set(3);
  set.update(1, 5.0);
  EXPECT_FALSE(set.assign({1.0, 2.0}));
  EXPECT_FALSE(set.assign({1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(set.frontier(1), 5.0);  // a refused assign changes nothing
  EXPECT_EQ(set.machine_at(0), 1);
  EXPECT_THROW((void)set.assign({1.0, -1.0, 0.0}), PreconditionError);
}

TEST(FrontierSet, StartNeverRoundsDefinitelyBeforeTheFrontier) {
  // Past 2^23 an ulp exceeds kTimeEps: now + (frontier - now) rounds one
  // ulp (1.2e-4) below this frontier, which would overlap the commitment
  // that set it. start() is the frontier itself there.
  const TimePoint now = 435031190265.0291;
  const TimePoint frontier = 1011290864530.4867;
  FrontierSet set(2);
  set.update(1, frontier);
  ASSERT_TRUE(definitely_less(now + set.load(1, now), frontier));
  EXPECT_EQ(set.start(1, now), frontier);
  EXPECT_EQ(set.start_at(0, now), frontier);
  EXPECT_EQ(set.start(0, now), now);  // idle: start at the release
  // Below 2^23 the start is now + load, bit for bit.
  set.update(1, 5.8);
  EXPECT_EQ(set.start(1, 0.3), 0.3 + set.load(1, 0.3));
}

}  // namespace
}  // namespace slacksched
