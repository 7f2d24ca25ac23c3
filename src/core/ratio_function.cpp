#include "core/ratio_function.hpp"

#include <cmath>
#include <limits>

#include "common/expects.hpp"

namespace slacksched {

namespace {

/// Forward recursion: given c and k, computes f_k..f_m. Returns the partial
/// denominators as well so callers can detect non-positive denominators
/// (which mean c is far too small). Returns false if the recursion degenerates.
bool forward_recursion(double c, int m, int k, std::vector<double>& f_out) {
  f_out.assign(static_cast<std::size_t>(m - k + 1), 0.0);
  double denom = static_cast<double>(k);  // k + sum_{h=k}^{q-1} (f_h - 1)
  for (int q = k; q <= m; ++q) {
    if (denom <= 0.0) return false;
    const double f_q = (c * denom - 1.0) / static_cast<double>(m);
    f_out[static_cast<std::size_t>(q - k)] = f_q;
    denom += f_q - 1.0;
  }
  return true;
}

/// f_m as a function of c for the k-variant (-inf when degenerate), the
/// monotone function we bisect on.
double f_m_of_c(double c, int m, int k, std::vector<double>& scratch) {
  if (!forward_recursion(c, m, k, scratch)) {
    return -std::numeric_limits<double>::infinity();
  }
  return scratch.back();
}

}  // namespace

double RatioSolution::theorem2_bound() const {
  constexpr double kDelayedExecutionPenalty =
      (3.0 - 2.718281828459045235) / (2.718281828459045235 - 1.0);
  return k <= 3 ? c : c + kDelayedExecutionPenalty;
}

RatioSolution RatioFunction::solve_with_k(double eps, int m, int k) {
  SLACKSCHED_EXPECTS(eps >= kMinEps && eps <= 1.0);
  SLACKSCHED_EXPECTS(m >= 1);
  SLACKSCHED_EXPECTS(k >= 1 && k <= m);

  const double target_f_m = (1.0 + eps) / eps;  // anchor (4)

  std::vector<double> scratch;
  // Bracket the root: f_m(c) is strictly increasing where defined.
  double lo = 1.0 / static_cast<double>(m);  // gives f_k = (k/m - 1)/m < target
  double hi = 1.0 + static_cast<double>(m) * target_f_m;  // generous
  // Expand hi defensively (needed only for extreme parameters).
  for (int i = 0; i < 128 && f_m_of_c(hi, m, k, scratch) < target_f_m; ++i) {
    hi *= 2.0;
  }
  SLACKSCHED_ENSURES(f_m_of_c(hi, m, k, scratch) >= target_f_m);

  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (f_m_of_c(mid, m, k, scratch) < target_f_m) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  RatioSolution sol;
  sol.eps = eps;
  sol.m = m;
  sol.k = k;
  sol.c = 0.5 * (lo + hi);
  const bool ok = forward_recursion(sol.c, m, k, sol.f);
  SLACKSCHED_ENSURES(ok);
  return sol;
}

RatioSolution RatioFunction::solve(double eps, int m) {
  SLACKSCHED_EXPECTS(eps >= kMinEps && eps <= 1.0);
  SLACKSCHED_EXPECTS(m >= 1);
  // The phase index is the smallest k whose variant satisfies f_k >= 2
  // (Eq. 6). k = m always qualifies because f_m = (1+eps)/eps >= 2 for
  // eps <= 1, so the loop always terminates.
  for (int k = 1; k < m; ++k) {
    RatioSolution sol = solve_with_k(eps, m, k);
    if (sol.f.front() >= 2.0) return sol;
  }
  return solve_with_k(eps, m, m);
}

double RatioFunction::corner(int k, int m) {
  SLACKSCHED_EXPECTS(m >= 1);
  SLACKSCHED_EXPECTS(k >= 0 && k <= m);
  if (k == 0) return 0.0;
  if (k == m) return 1.0;  // f_m(1) = 2 exactly: the anchor at eps = 1
  // f_k(eps) is strictly decreasing in eps; find f_k = 2 by bisection.
  double lo = kMinEps;
  double hi = 1.0;
  if (solve_with_k(hi, m, k).f.front() >= 2.0) return 1.0;  // no transition
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (solve_with_k(mid, m, k).f.front() >= 2.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double RatioFunction::closed_form_m1(double eps) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  return 2.0 + 1.0 / eps;
}

double RatioFunction::closed_form_m2(double eps) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  constexpr double kCornerM2 = 2.0 / 7.0;  // eps_{1,2}, Eq. (1)
  if (eps < kCornerM2) {
    return 2.0 * std::sqrt(25.0 / 16.0 + 1.0 / eps) + 0.5;
  }
  return 1.5 + 1.0 / eps;
}

double RatioFunction::closed_form_last_phase(double eps, int m) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  SLACKSCHED_EXPECTS(m >= 1);
  // k = m: c = (m * f_m + 1) / m with f_m = (1 + eps) / eps.
  return (static_cast<double>(m) * (1.0 + eps) / eps + 1.0) /
         static_cast<double>(m);
}

double RatioFunction::closed_form_second_last_phase(double eps, int m) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  SLACKSCHED_EXPECTS(m >= 2);
  // k = m - 1, two equalized ratios:
  //   c = (1 + m a) / (m - 1) = (1 + m F) / (m - 2 + a),  a = f_{m-1},
  // with F = (1+eps)/eps, giving the quadratic
  //   m a^2 + (1 + m (m - 2)) a + (m - 2) - (m - 1)(1 + m F) = 0.
  const double F = (1.0 + eps) / eps;
  const double md = static_cast<double>(m);
  const double b = 1.0 + md * (md - 2.0);
  const double c0 = (md - 2.0) - (md - 1.0) * (1.0 + md * F);
  const double a = (-b + std::sqrt(b * b - 4.0 * md * c0)) / (2.0 * md);
  return (1.0 + md * a) / (md - 1.0);
}

namespace {

/// Largest real root of A x^3 + B x^2 + C x + D (A != 0) via Cardano /
/// Viete. Exact arithmetic on the closed form, not iteration.
double largest_real_cubic_root(double A, double B, double C, double D) {
  SLACKSCHED_EXPECTS(A != 0.0);
  const double b = B / A;
  const double c = C / A;
  const double d = D / A;
  // Depress: x = t - b/3 -> t^3 + p t + q.
  const double p = c - b * b / 3.0;
  const double q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;
  const double shift = -b / 3.0;
  const double discriminant = q * q / 4.0 + p * p * p / 27.0;
  if (discriminant >= 0.0) {
    // One real root.
    const double s = std::sqrt(discriminant);
    const double u = std::cbrt(-q / 2.0 + s);
    const double v = std::cbrt(-q / 2.0 - s);
    return u + v + shift;
  }
  // Three real roots (casus irreducibilis): trigonometric form; the
  // largest corresponds to k = 0.
  const double r = 2.0 * std::sqrt(-p / 3.0);
  const double phi = std::acos(3.0 * q / (p * r));
  return r * std::cos(phi / 3.0) + shift;
}

}  // namespace

double RatioFunction::closed_form_third_last_phase(double eps, int m) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  SLACKSCHED_EXPECTS(m >= 3);
  // Eliminating f_{m-2} = (c(m-2) - 1)/m and f_{m-1} from the equalized
  // ratios (5) with anchor f_m = (1+eps)/eps yields the cubic below
  // (multiply the q = m equation by m^2 and substitute).
  const double F = (1.0 + eps) / eps;
  const double md = static_cast<double>(m);
  const double A = md - 2.0;
  const double B = md * (2.0 * md - 5.0) - 1.0;
  const double C = md * md * (md - 4.0) - 2.0 * md;
  const double D = -md * md * (1.0 + md * F);
  return largest_real_cubic_root(A, B, C, D);
}

double RatioFunction::proposition1_leading_term(double eps) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  return std::log(1.0 / eps);
}

double RatioFunction::limit_large_m(double eps) {
  SLACKSCHED_EXPECTS(eps > 0.0 && eps <= 1.0);
  return 2.0 + std::log(1.0 / eps);
}

}  // namespace slacksched
