#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/expects.hpp"

namespace slacksched {

std::string to_string(ArrivalModel model) {
  switch (model) {
    case ArrivalModel::kPoisson:
      return "poisson";
    case ArrivalModel::kUniform:
      return "uniform";
    case ArrivalModel::kBursty:
      return "bursty";
    case ArrivalModel::kAllAtOnce:
      return "all-at-once";
    case ArrivalModel::kDiurnal:
      return "diurnal";
  }
  return "unknown";
}

std::string to_string(SizeModel model) {
  switch (model) {
    case SizeModel::kUniform:
      return "uniform";
    case SizeModel::kBoundedPareto:
      return "bounded-pareto";
    case SizeModel::kBimodal:
      return "bimodal";
    case SizeModel::kConstant:
      return "constant";
  }
  return "unknown";
}

std::string to_string(SlackModel model) {
  switch (model) {
    case SlackModel::kTight:
      return "tight";
    case SlackModel::kUniformFactor:
      return "uniform-factor";
    case SlackModel::kMixed:
      return "mixed";
  }
  return "unknown";
}

std::string WorkloadConfig::to_string() const {
  return "workload(n=" + std::to_string(n) + ", eps=" + std::to_string(eps) +
         ", arrival=" + slacksched::to_string(arrival) +
         ", size=" + slacksched::to_string(size) +
         ", slack=" + slacksched::to_string(slack) +
         ", seed=" + std::to_string(seed) + ")";
}

std::vector<std::string> WorkloadConfig::validate() const {
  std::vector<std::string> errors;
  if (n == 0) {
    errors.push_back("n must be >= 1 (got 0): an empty instance is not a "
                     "workload");
  }
  if (!(eps > 0.0)) {
    // eps > 1 is allowed: the paper's algorithms need eps <= 1 but the
    // wide-slack regime (footnote 2) is served by core/adaptive.hpp.
    errors.push_back("eps must be > 0 (got " + std::to_string(eps) +
                     "): every deadline is d = r + (1 + eps) p");
  }
  if (arrival == ArrivalModel::kPoisson || arrival == ArrivalModel::kBursty ||
      arrival == ArrivalModel::kDiurnal) {
    if (!(arrival_rate > 0.0)) {
      errors.push_back("arrival_rate must be > 0 for the " +
                       slacksched::to_string(arrival) +
                       " arrival model (got " + std::to_string(arrival_rate) +
                       ")");
    }
  }
  if (arrival == ArrivalModel::kUniform && !(horizon > 0.0)) {
    errors.push_back("horizon must be > 0 for the uniform arrival model "
                     "(got " + std::to_string(horizon) + ")");
  }
  if (arrival == ArrivalModel::kBursty) {
    if (!(burst_every > 0.0)) {
      errors.push_back("burst_every must be > 0 for the bursty arrival "
                       "model (got " + std::to_string(burst_every) + ")");
    }
    if (burst_size == 0) {
      errors.push_back("burst_size must be >= 1 for the bursty arrival "
                       "model (got 0)");
    }
  }
  if (arrival == ArrivalModel::kDiurnal) {
    if (!(diurnal_period > 0.0)) {
      errors.push_back("diurnal_period must be > 0 (got " +
                       std::to_string(diurnal_period) + ")");
    }
    if (diurnal_amplitude < 0.0 || diurnal_amplitude >= 1.0) {
      errors.push_back("diurnal_amplitude must be in [0, 1) (got " +
                       std::to_string(diurnal_amplitude) +
                       "): the thinning rate would go negative");
    }
  }
  if (!(size_min > 0.0)) {
    errors.push_back("size_min must be > 0 (got " + std::to_string(size_min) +
                     ")");
  }
  if (size_min > size_max) {
    errors.push_back("size_min (" + std::to_string(size_min) +
                     ") must not exceed size_max (" +
                     std::to_string(size_max) + ")");
  }
  if (size == SizeModel::kBoundedPareto && !(pareto_alpha > 0.0)) {
    errors.push_back("pareto_alpha must be > 0 for the bounded-pareto size "
                     "model (got " + std::to_string(pareto_alpha) + ")");
  }
  if (size == SizeModel::kBimodal &&
      (bimodal_long_fraction < 0.0 || bimodal_long_fraction > 1.0)) {
    errors.push_back("bimodal_long_fraction must be in [0, 1] (got " +
                     std::to_string(bimodal_long_fraction) + ")");
  }
  if ((slack == SlackModel::kUniformFactor || slack == SlackModel::kMixed) &&
      slack_hi < eps) {
    errors.push_back("slack_hi (" + std::to_string(slack_hi) +
                     ") must be >= eps (" + std::to_string(eps) +
                     "): the slack factor is drawn from [eps, slack_hi]");
  }
  return errors;
}

namespace {

std::vector<TimePoint> draw_releases(const WorkloadConfig& config, Rng& rng) {
  std::vector<TimePoint> releases;
  releases.reserve(config.n);
  switch (config.arrival) {
    case ArrivalModel::kPoisson: {
      TimePoint t = 0.0;
      for (std::size_t i = 0; i < config.n; ++i) {
        t += rng.exponential(config.arrival_rate);
        releases.push_back(t);
      }
      break;
    }
    case ArrivalModel::kUniform: {
      for (std::size_t i = 0; i < config.n; ++i) {
        releases.push_back(rng.uniform(0.0, config.horizon));
      }
      std::sort(releases.begin(), releases.end());
      break;
    }
    case ArrivalModel::kBursty: {
      TimePoint t = 0.0;
      std::size_t produced = 0;
      TimePoint next_burst = config.burst_every;
      while (produced < config.n) {
        const TimePoint next_poisson =
            t + rng.exponential(config.arrival_rate);
        if (next_poisson < next_burst) {
          t = next_poisson;
          releases.push_back(t);
          ++produced;
        } else {
          t = next_burst;
          for (std::size_t b = 0;
               b < config.burst_size && produced < config.n; ++b) {
            releases.push_back(t);
            ++produced;
          }
          next_burst += config.burst_every;
        }
      }
      break;
    }
    case ArrivalModel::kAllAtOnce: {
      releases.assign(config.n, 0.0);
      break;
    }
    case ArrivalModel::kDiurnal: {
      // Non-homogeneous Poisson by thinning: candidates at the peak rate,
      // accepted with probability rate(t) / peak.
      SLACKSCHED_EXPECTS(config.diurnal_amplitude >= 0.0 &&
                         config.diurnal_amplitude < 1.0);
      SLACKSCHED_EXPECTS(config.diurnal_period > 0.0);
      const double peak = config.arrival_rate *
                          (1.0 + config.diurnal_amplitude);
      TimePoint t = 0.0;
      while (releases.size() < config.n) {
        t += rng.exponential(peak);
        const double rate =
            config.arrival_rate *
            (1.0 + config.diurnal_amplitude *
                       std::sin(2.0 * 3.14159265358979323846 * t /
                                config.diurnal_period));
        if (rng.uniform01() < rate / peak) releases.push_back(t);
      }
      break;
    }
  }
  return releases;
}

Duration draw_size(const WorkloadConfig& config, Rng& rng) {
  switch (config.size) {
    case SizeModel::kUniform:
      return rng.uniform(config.size_min, config.size_max);
    case SizeModel::kBoundedPareto:
      return rng.bounded_pareto(config.pareto_alpha, config.size_min,
                                config.size_max);
    case SizeModel::kBimodal:
      return rng.bernoulli(config.bimodal_long_fraction) ? config.size_max
                                                         : config.size_min;
    case SizeModel::kConstant:
      return config.size_min;
  }
  return config.size_min;
}

double draw_slack_factor(const WorkloadConfig& config, Rng& rng) {
  switch (config.slack) {
    case SlackModel::kTight:
      return config.eps;
    case SlackModel::kUniformFactor:
      return rng.uniform(config.eps, std::max(config.eps * (1.0 + 1e-12),
                                              config.slack_hi));
    case SlackModel::kMixed:
      return rng.bernoulli(0.5)
                 ? config.eps
                 : rng.uniform(config.eps,
                               std::max(config.eps * (1.0 + 1e-12),
                                        config.slack_hi));
  }
  return config.eps;
}

}  // namespace

Instance generate_workload(const WorkloadConfig& config) {
  const std::vector<std::string> errors = config.validate();
  if (!errors.empty()) {
    std::string joined = "invalid WorkloadConfig:";
    for (const std::string& e : errors) joined += "\n  - " + e;
    throw PreconditionError(joined);
  }

  Rng rng(config.seed);
  const std::vector<TimePoint> releases = draw_releases(config, rng);

  std::vector<Job> jobs;
  jobs.reserve(config.n);
  for (std::size_t i = 0; i < config.n; ++i) {
    Job job;
    job.id = static_cast<JobId>(i + 1);
    job.release = releases[i];
    job.proc = draw_size(config, rng);
    const double factor = draw_slack_factor(config, rng);
    job.deadline = job.release + (1.0 + factor) * job.proc;
    jobs.push_back(job);
  }
  Instance instance(std::move(jobs));
  SLACKSCHED_ENSURES(instance.validate(config.eps).ok);
  return instance;
}

namespace {

WorkloadConfig cloud_burst_base(double eps, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = 2000;
  config.eps = eps;
  config.arrival = ArrivalModel::kBursty;
  config.arrival_rate = 2.0;
  config.burst_every = 50.0;
  config.burst_size = 25;
  config.size = SizeModel::kBoundedPareto;
  config.size_min = 0.5;
  config.size_max = 50.0;
  config.pareto_alpha = 1.2;
  config.slack = SlackModel::kMixed;
  config.slack_hi = 1.0;
  config.seed = seed;
  return config;
}

WorkloadConfig overload_base(double eps, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = 1500;
  config.eps = eps;
  config.arrival = ArrivalModel::kPoisson;
  config.arrival_rate = 4.0;  // several times the single-machine capacity
  config.size = SizeModel::kUniform;
  config.size_min = 1.0;
  config.size_max = 10.0;
  config.slack = SlackModel::kTight;
  config.seed = seed;
  return config;
}

WorkloadConfig diurnal_base(double eps, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = 2000;
  config.eps = eps;
  config.arrival = ArrivalModel::kDiurnal;
  config.arrival_rate = 3.0;
  config.diurnal_period = 240.0;
  config.diurnal_amplitude = 0.8;
  config.size = SizeModel::kBimodal;
  config.size_min = 0.5;
  config.size_max = 20.0;
  config.bimodal_long_fraction = 0.15;
  config.slack = SlackModel::kMixed;
  config.slack_hi = 1.0;
  config.seed = seed;
  return config;
}

struct ScenarioEntry {
  const char* name;
  WorkloadConfig (*build)(double eps, std::uint64_t seed);
};

constexpr ScenarioEntry kScenarios[] = {
    {"cloud-burst", &cloud_burst_base},
    {"overload", &overload_base},
    {"diurnal", &diurnal_base},
};

}  // namespace

WorkloadConfig scenario(std::string_view name, double eps,
                        std::uint64_t seed) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (name == entry.name) return entry.build(eps, seed);
  }
  std::string known;
  for (const ScenarioEntry& entry : kScenarios) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw PreconditionError("unknown workload scenario \"" +
                          std::string(name) + "\" (known: " + known + ")");
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kScenarios));
  for (const ScenarioEntry& entry : kScenarios) {
    names.emplace_back(entry.name);
  }
  return names;
}

}  // namespace slacksched
