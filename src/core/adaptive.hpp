// Slack-adaptive front end covering the full slack range.
//
// The paper's Threshold algorithm (and its guarantee) applies to
// eps in (0, 1]. For eps > 1 its footnote 2 observes that a greedy
// algorithm allocating jobs in a non-delay fashion is already
// constant-competitive (ratio < 3), so no threshold machinery is needed.
// make_adaptive_scheduler dispatches accordingly, giving downstream users
// one constructor for any slack.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/online.hpp"

namespace slacksched {

/// Non-delay greedy for the wide-slack regime (eps > 1): accept iff some
/// machine completes the job on time, allocate for the earliest start
/// (least loaded machine). Footnote 2 of the paper: ratio < 3 for eps > 1.
class WideSlackScheduler final : public OnlineScheduler {
 public:
  WideSlackScheduler(double eps, int machines);

  Decision on_arrival(const Job& job) override;
  [[nodiscard]] int machines() const override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double assumed_slack() const override { return eps_; }

  /// The constant guarantee of the wide-slack regime.
  [[nodiscard]] static double guarantee() { return 3.0; }

 private:
  double eps_;
  int machines_;
  std::vector<TimePoint> frontier_;
};

/// One constructor for every slack: Threshold (Algorithm 1) for
/// eps in (0, 1], non-delay greedy for eps > 1.
[[nodiscard]] std::unique_ptr<OnlineScheduler> make_adaptive_scheduler(
    double eps, int machines);

/// The competitive guarantee make_adaptive_scheduler provides at the given
/// parameters: c(eps, m) (+0.164 for k > 3) below eps = 1, 3 above.
[[nodiscard]] double adaptive_guarantee(double eps, int machines);

}  // namespace slacksched
