#include "core/frontier_set.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/expects.hpp"

namespace slacksched {

namespace {
constexpr std::size_t kWordBits = 64;
}  // namespace

FrontierSet::FrontierSet(int machines)
    : machines_(machines),
      frontier_(static_cast<std::size_t>(machines), 0.0),
      order_(static_cast<std::size_t>(machines)),
      position_(static_cast<std::size_t>(machines)),
      idle_bits_((static_cast<std::size_t>(machines) + kWordBits - 1) /
                 kWordBits) {
  SLACKSCHED_EXPECTS(machines >= 1);
  reset();
}

FrontierSet::FrontierSet(int machines, std::vector<double> speeds)
    : FrontierSet(machines) {
  if (speeds.empty()) return;
  SLACKSCHED_EXPECTS(static_cast<int>(speeds.size()) == machines);
  bool uniform = true;
  for (const double s : speeds) {
    SLACKSCHED_EXPECTS(s > 0.0);
    if (s != 1.0) uniform = false;
  }
  // All-unit speeds normalize to the identical-machine representation so
  // the uniform fast paths (and their bit-exactness pins) still apply.
  if (!uniform) speed_ = std::move(speeds);
}

double FrontierSet::speed(int machine) const {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines_);
  if (speed_.empty()) return 1.0;
  return speed_[static_cast<std::size_t>(machine)];
}

void FrontierSet::reset() {
  std::fill(frontier_.begin(), frontier_.end(), 0.0);
  std::iota(order_.begin(), order_.end(), std::int32_t{0});
  std::iota(position_.begin(), position_.end(), std::int32_t{0});
  idle_watermark_ = 0.0;
  std::fill(idle_bits_.begin(), idle_bits_.end(), std::uint64_t{0});
  for (int i = 0; i < machines_; ++i) set_idle_bit(i, true);
}

TimePoint FrontierSet::frontier(int machine) const {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines_);
  return frontier_[static_cast<std::size_t>(machine)];
}

int FrontierSet::machine_at(int position) const {
  SLACKSCHED_EXPECTS(position >= 0 && position < machines_);
  return order_[static_cast<std::size_t>(position)];
}

TimePoint FrontierSet::frontier_at(int position) const {
  SLACKSCHED_EXPECTS(position >= 0 && position < machines_);
  return frontier_[static_cast<std::size_t>(
      order_[static_cast<std::size_t>(position)])];
}

int FrontierSet::position_of(int machine) const {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines_);
  return position_[static_cast<std::size_t>(machine)];
}

Duration FrontierSet::load(int machine, TimePoint now) const {
  return std::max(0.0, frontier(machine) - now);
}

Duration FrontierSet::load_at(int position, TimePoint now) const {
  return std::max(0.0, frontier_at(position) - now);
}

bool FrontierSet::ordered_before(int a, int b) const {
  const TimePoint fa = frontier_[static_cast<std::size_t>(a)];
  const TimePoint fb = frontier_[static_cast<std::size_t>(b)];
  return fa > fb || (fa == fb && a < b);
}

void FrontierSet::update(int machine, TimePoint value) {
  SLACKSCHED_EXPECTS(machine >= 0 && machine < machines_);
  const int p = position_[static_cast<std::size_t>(machine)];
  frontier_[static_cast<std::size_t>(machine)] = value;
  if (p > 0 && ordered_before(machine, order_[static_cast<std::size_t>(p - 1)])) {
    // Moves toward the front: the insertion point is the first position in
    // [0, p) whose machine no longer precedes the updated one. The range
    // excluding position p is still sorted, so the predicate is monotone.
    int lo = 0;
    int hi = p;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (ordered_before(order_[static_cast<std::size_t>(mid)], machine)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::rotate(order_.begin() + lo, order_.begin() + p,
                order_.begin() + p + 1);
    for (int q = lo; q <= p; ++q) {
      position_[static_cast<std::size_t>(order_[static_cast<std::size_t>(q)])] =
          q;
    }
  } else if (p + 1 < machines_ &&
             ordered_before(order_[static_cast<std::size_t>(p + 1)], machine)) {
    // Moves toward the back: the updated machine belongs immediately before
    // the first position in (p, m) whose machine it precedes.
    int lo = p + 1;
    int hi = machines_;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (ordered_before(order_[static_cast<std::size_t>(mid)], machine)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::rotate(order_.begin() + p, order_.begin() + p + 1,
                order_.begin() + lo);
    for (int q = p; q < lo; ++q) {
      position_[static_cast<std::size_t>(order_[static_cast<std::size_t>(q)])] =
          q;
    }
  }
  set_idle_bit(machine, value <= idle_watermark_);
}

bool FrontierSet::restore(int machine, TimePoint start, Duration proc) {
  if (machine < 0 || machine >= machines_) return false;
  update(machine,
         std::max(frontier(machine), start + exec_time(machine, proc)));
  return true;
}

int FrontierSet::first_position_not_above(TimePoint value) const {
  int lo = 0;
  int hi = machines_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (frontier_at(mid) <= value) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

int FrontierSet::first_position_below(TimePoint value) const {
  int lo = 0;
  int hi = machines_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (frontier_at(mid) < value) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

int FrontierSet::best_fit(TimePoint now, Duration proc, TimePoint deadline) {
  if (!speed_.empty()) return best_fit_scan(now, proc, deadline);
  // Loads are non-increasing in the sorted position and floating-point
  // addition is weakly monotone, so feasibility splits the order into an
  // infeasible prefix and a feasible suffix; the first feasible position
  // carries the maximum feasible load.
  int lo = 0;
  int hi = machines_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (approx_le(now + load_at(mid, now) + proc, deadline)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == machines_) return -1;
  return min_machine_with_load_at(lo, now);
}

int FrontierSet::best_fit_scan(TimePoint now, Duration proc,
                               TimePoint deadline) const {
  int chosen = -1;
  Duration best = 0.0;
  for (int i = 0; i < machines_; ++i) {
    const Duration l = load(i, now);
    if (!approx_le(now + l + exec_time(i, proc), deadline)) continue;
    if (chosen < 0 || l > best) {
      chosen = i;
      best = l;
    }
  }
  return chosen;
}

int FrontierSet::least_loaded_fit_scan(TimePoint now, Duration proc,
                                       TimePoint deadline) const {
  int chosen = -1;
  Duration best = 0.0;
  for (int i = 0; i < machines_; ++i) {
    const Duration l = load(i, now);
    if (!approx_le(now + l + exec_time(i, proc), deadline)) continue;
    if (chosen < 0 || l < best) {
      chosen = i;
      best = l;
    }
  }
  return chosen;
}

int FrontierSet::least_loaded_fit(TimePoint now, Duration proc,
                                  TimePoint deadline) {
  if (!speed_.empty()) return least_loaded_fit_scan(now, proc, deadline);
  // The last position holds the minimum load, and feasibility is monotone
  // in the position, so the least loaded machine is feasible iff any is.
  const int tail = machines_ - 1;
  if (!approx_le(now + load_at(tail, now) + proc, deadline)) return -1;
  const Duration min_load = load_at(tail, now);
  int lo = 0;
  int hi = tail;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (load_at(mid, now) == min_load) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return min_machine_with_load_at(lo, now);
}

int FrontierSet::min_machine_with_load_at(int position, TimePoint now) {
  const Duration value = load_at(position, now);
  if (value == 0.0) return min_idle_machine(now);
  // Positive load: machines sharing a frontier form one contiguous run
  // ordered by ascending index, so each run's head is its lowest index.
  // Distinct frontiers can still round to the same load; jump across run
  // heads (each found by binary search) until the load changes.
  int best = order_[static_cast<std::size_t>(position)];
  int q = first_position_below(frontier_[static_cast<std::size_t>(best)]);
  while (q < machines_ && load_at(q, now) == value) {
    const int machine = order_[static_cast<std::size_t>(q)];
    best = std::min(best, machine);
    q = first_position_below(frontier_[static_cast<std::size_t>(machine)]);
  }
  return best;
}

int FrontierSet::min_idle_machine(TimePoint now) {
  if (now < idle_watermark_) {
    rebuild_idle_bits(now);
  } else if (now > idle_watermark_) {
    advance_idle_watermark(now);
  }
  for (std::size_t word = 0; word < idle_bits_.size(); ++word) {
    if (idle_bits_[word] != 0) {
      return static_cast<int>(
          word * kWordBits +
          static_cast<std::size_t>(std::countr_zero(idle_bits_[word])));
    }
  }
  return -1;
}

void FrontierSet::set_idle_bit(int machine, bool idle) {
  const std::size_t word = static_cast<std::size_t>(machine) / kWordBits;
  const std::uint64_t mask = std::uint64_t{1}
                             << (static_cast<std::size_t>(machine) % kWordBits);
  if (idle) {
    idle_bits_[word] |= mask;
  } else {
    idle_bits_[word] &= ~mask;
  }
}

void FrontierSet::rebuild_idle_bits(TimePoint now) {
  std::fill(idle_bits_.begin(), idle_bits_.end(), std::uint64_t{0});
  for (int i = 0; i < machines_; ++i) {
    if (frontier_[static_cast<std::size_t>(i)] <= now) set_idle_bit(i, true);
  }
  idle_watermark_ = now;
}

void FrontierSet::advance_idle_watermark(TimePoint now) {
  // Machines whose frontier lies in (idle_watermark_, now] became idle
  // since the last query; they occupy a contiguous position range. Bits of
  // machines at or below the old watermark are already correct.
  const int begin = first_position_not_above(now);
  const int end = first_position_not_above(idle_watermark_);
  for (int p = begin; p < end; ++p) {
    set_idle_bit(order_[static_cast<std::size_t>(p)], true);
  }
  idle_watermark_ = now;
}

}  // namespace slacksched
