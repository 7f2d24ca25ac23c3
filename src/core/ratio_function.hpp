// The ratio function c(eps, m) of Section 2 and its parameters f_q(eps, m).
//
// For a fixed phase index k in {1..m} the paper defines (Eqs. 4, 5):
//
//     f_m = (1 + eps) / eps                                    (anchor)
//     c   = (1 + m * f_q) / (k + sum_{h=k}^{q-1} (f_h - 1))    for all q
//
// i.e. the m - k + 1 candidate ratios are equalized. Given c the f_q follow
// by forward recursion (f_k = (c*k - 1)/m, then each f_q from the partial
// sums), and f_m(c) is strictly increasing in c, so the unique c with
// f_m(c) = (1+eps)/eps is found by bisection.
//
// The phase index k is the smallest k whose solution satisfies the technical
// constraint f_k >= 2 (Eq. 6). The corner values eps_{k,m} with
// f_k(eps_{k,m}, m) = 2 (Eq. 7) partition (0, 1] into the m phases visible
// in Fig. 1; c is continuous across them.
#pragma once

#include <vector>

#include "common/expects.hpp"

namespace slacksched {

/// The solved recursion for one (eps, m) pair.
struct RatioSolution {
  double eps = 0.0;
  int m = 1;
  int k = 1;       ///< phase index: eps in (eps_{k-1,m}, eps_{k,m}]
  double c = 0.0;  ///< the competitive ratio c(eps, m) = (m f_k + 1)/k

  /// f_q for q in {k, ..., m}; f[q - k] stores f_q.
  std::vector<double> f;

  /// Accessor with the paper's 1-based q indexing. Requires k <= q <= m.
  [[nodiscard]] double f_at(int q) const {
    SLACKSCHED_EXPECTS(q >= k && q <= m);
    return f[static_cast<std::size_t>(q - k)];
  }

  /// Theorem 2's upper bound on Algorithm 1: c for k <= 3, else c + 0.164.
  [[nodiscard]] double theorem2_bound() const;
};

/// Static solver for the ratio function. All functions are pure.
class RatioFunction {
 public:
  /// Admissible slack range of the paper.
  static constexpr double kMinEps = 1e-12;

  /// Solves c(eps, m), selecting the phase index k per Eq. (6)/(7).
  /// Requires eps in (0, 1] and m >= 1.
  [[nodiscard]] static RatioSolution solve(double eps, int m);

  /// Solves the k-variant of the recursion regardless of the f_k >= 2
  /// constraint (used for corner computation and the ablation bench).
  [[nodiscard]] static RatioSolution solve_with_k(double eps, int m, int k);

  /// The corner value eps_{k,m} with f_k = 2, clamped to (0, 1].
  /// corner(m, m) == 1 by the anchor; corner(0, m) is defined as 0.
  [[nodiscard]] static double corner(int k, int m);

  /// Closed form for m = 1: c = 2 + 1/eps (Goldwasser/Kerbikov).
  [[nodiscard]] static double closed_form_m1(double eps);

  /// Closed form for m = 2, Eq. (1) of the paper.
  [[nodiscard]] static double closed_form_m2(double eps);

  /// Closed form of the last phase (k = m): c = 1/m + (1 + eps)/eps.
  [[nodiscard]] static double closed_form_last_phase(double eps, int m);

  /// Closed form of the second-to-last phase (k = m - 1), via the quadratic
  /// in f_{m-1}. Requires m >= 2.
  [[nodiscard]] static double closed_form_second_last_phase(double eps, int m);

  /// Closed form of the third-to-last phase (k = m - 2): the paper notes
  /// analytic expressions exist exactly for k in {m-2, m-1, m}; this is
  /// the k = m-2 one, the largest real root of the cubic
  ///   (m-2) c^3 + (m(2m-5) - 1) c^2 + (m^2(m-4) - 2m) c
  ///     - m^2 (1 + m (1+eps)/eps) = 0
  /// obtained by eliminating f_{m-2}, f_{m-1} from recursion (5).
  /// Requires m >= 3.
  [[nodiscard]] static double closed_form_third_last_phase(double eps, int m);

  /// Proposition 1's statement: the leading term ln(1/eps) that c(eps, m)
  /// approaches as m -> inf and eps -> 0.
  [[nodiscard]] static double proposition1_leading_term(double eps);

  /// The exact large-m limit of c(eps, m) at fixed eps, derived from the
  /// same continuous relaxation as Proposition 1's proof: the equalized
  /// recursion becomes f' = c (f - 1) with f(kappa) = c kappa = 2 and
  /// anchor f(1) = 1 + 1/eps, giving c = 2 + ln(1/eps). The additive 2 is
  /// lower-order as eps -> 0, recovering the proposition.
  [[nodiscard]] static double limit_large_m(double eps);
};

}  // namespace slacksched
