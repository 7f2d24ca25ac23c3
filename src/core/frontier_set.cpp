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
      sorted_(static_cast<std::size_t>(machines), 0.0),
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
  std::fill(sorted_.begin(), sorted_.end(), 0.0);
  std::iota(order_.begin(), order_.end(), std::int32_t{0});
  std::iota(position_.begin(), position_.end(), std::int32_t{0});
  idle_watermark_ = 0.0;
  std::fill(idle_bits_.begin(), idle_bits_.end(), std::uint64_t{0});
  for (int i = 0; i < machines_; ++i) set_idle_bit(i, true);
}

void FrontierSet::update(int machine, TimePoint value) {
  auto p = static_cast<std::size_t>(position_of(machine));  // checks machine
  // Insertion pass: walk the hole from the machine's old position toward
  // its new one, shifting each displaced entry (value, id and position
  // together) one step into the hole.
  const auto shift_from = [this, &p](std::size_t q) {
    sorted_[p] = sorted_[q];
    order_[p] = order_[q];
    position_[static_cast<std::size_t>(order_[p])] =
        static_cast<std::int32_t>(p);
    p = q;
  };
  // Toward the front while the updated machine precedes its neighbour.
  while (p > 0 && (value > sorted_[p - 1] ||
                   (value == sorted_[p - 1] && machine < order_[p - 1]))) {
    shift_from(p - 1);
  }
  // Toward the back while the neighbour precedes the updated machine.
  const auto last = static_cast<std::size_t>(machines_ - 1);
  while (p < last && (sorted_[p + 1] > value ||
                      (sorted_[p + 1] == value && order_[p + 1] < machine))) {
    shift_from(p + 1);
  }
  sorted_[p] = value;
  order_[p] = machine;
  position_[static_cast<std::size_t>(machine)] = static_cast<std::int32_t>(p);
  set_idle_bit(machine, value <= idle_watermark_);
}

bool FrontierSet::assign(const std::vector<TimePoint>& frontiers) {
  if (static_cast<int>(frontiers.size()) != machines_) return false;
  for (const TimePoint f : frontiers) SLACKSCHED_EXPECTS(f >= 0.0);
  std::iota(order_.begin(), order_.end(), std::int32_t{0});
  // Larger frontier first, ties by ascending machine index.
  std::sort(order_.begin(), order_.end(), [&frontiers](int a, int b) {
    const TimePoint fa = frontiers[static_cast<std::size_t>(a)];
    const TimePoint fb = frontiers[static_cast<std::size_t>(b)];
    return fa > fb || (fa == fb && a < b);
  });
  for (std::size_t q = 0; q < order_.size(); ++q) {
    sorted_[q] = frontiers[static_cast<std::size_t>(order_[q])];
    position_[static_cast<std::size_t>(order_[q])] =
        static_cast<std::int32_t>(q);
  }
  // update() leaves the watermark where reset() put it, at 0.
  rebuild_idle_bits(0.0);
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
  int best = machine_at(position);
  int q = first_position_below(frontier_at(position));
  while (q < machines_ && load_at(q, now) == value) {
    best = std::min(best, machine_at(q));
    q = first_position_below(frontier_at(q));
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
  for (int p = first_position_not_above(now); p < machines_; ++p) {
    set_idle_bit(machine_at(p), true);
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
