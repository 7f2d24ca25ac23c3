// Time model shared by every module.
//
// The paper works in continuous time; we represent instants and durations as
// IEEE doubles. All order comparisons that decide scheduling outcomes go
// through the tolerance helpers below so that quantities which are equal in
// exact arithmetic (e.g. a deadline that coincides with a threshold) are not
// split by rounding noise. The tolerance is absolute and far below the
// smallest meaningful gap used anywhere in the library (the adversary's beta,
// default 1e-6).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace slacksched {

/// An instant on the simulated time line (seconds, arbitrary origin).
using TimePoint = double;
/// A length of simulated time (seconds).
using Duration = double;

/// Absolute tolerance for time comparisons across the library.
inline constexpr double kTimeEps = 1e-9;

/// Sentinel for "no deadline" / unbounded horizon.
inline constexpr TimePoint kTimeInfinity =
    std::numeric_limits<double>::infinity();

/// a == b up to tolerance.
[[nodiscard]] inline bool approx_eq(double a, double b,
                                    double tol = kTimeEps) {
  return std::fabs(a - b) <= tol;
}

/// a <= b up to tolerance (a may exceed b by at most tol).
[[nodiscard]] inline bool approx_le(double a, double b,
                                    double tol = kTimeEps) {
  return a <= b + tol;
}

/// a >= b up to tolerance.
[[nodiscard]] inline bool approx_ge(double a, double b,
                                    double tol = kTimeEps) {
  return a + tol >= b;
}

/// a < b by strictly more than tolerance.
[[nodiscard]] inline bool definitely_less(double a, double b,
                                          double tol = kTimeEps) {
  return a < b - tol;
}

/// a > b by strictly more than tolerance.
[[nodiscard]] inline bool definitely_greater(double a, double b,
                                             double tol = kTimeEps) {
  return a > b + tol;
}

/// When work released at `now` starts on a machine busy until `frontier`:
/// `now` plus the outstanding load, which is the frontier up to one
/// rounding. Past 2^23, where an ulp exceeds kTimeEps, that rounding alone
/// can land definitely before the frontier, overlapping the work that set
/// it; the start is then the frontier itself. Below 2^23 it is always
/// now + load, bit for bit.
[[nodiscard]] inline TimePoint start_after(TimePoint frontier,
                                           TimePoint now) {
  const TimePoint start = now + std::max(0.0, frontier - now);
  return definitely_less(start, frontier) ? frontier : start;
}

}  // namespace slacksched
