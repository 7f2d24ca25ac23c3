// Tests for the config-validation contract: per-message validate()
// coverage of WorkloadConfig, AdmissionServerConfig and GatewayConfig, and
// the scenario registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "net/admission_server.hpp"
#include "service/gateway.hpp"
#include "workload/generators.hpp"

namespace slacksched {
namespace {

using net::AdmissionServerConfig;

constexpr double kEps = 0.1;

/// True iff some validate() message contains the needle — the contract is
/// "one human-readable message per problem", so tests match substrings,
/// not exact strings.
bool has_message(const std::vector<std::string>& errors,
                 const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(),
                     [&needle](const std::string& e) {
                       return e.find(needle) != std::string::npos;
                     });
}

// ---------- WorkloadConfig validation ----------

TEST(WorkloadValidate, DefaultsAreValid) {
  EXPECT_TRUE(WorkloadConfig{}.validate().empty());
}

TEST(WorkloadValidate, EveryKnobHasItsOwnMessage) {
  {
    WorkloadConfig config;
    config.n = 0;
    EXPECT_TRUE(has_message(config.validate(), "n must be >= 1"));
  }
  {
    WorkloadConfig config;
    config.eps = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "eps must be > 0"));
  }
  {
    WorkloadConfig config;
    config.arrival_rate = -1.0;
    EXPECT_TRUE(has_message(config.validate(), "arrival_rate must be > 0"));
  }
  {
    WorkloadConfig config;
    config.arrival = ArrivalModel::kUniform;
    config.horizon = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "horizon must be > 0"));
  }
  {
    WorkloadConfig config;
    config.arrival = ArrivalModel::kBursty;
    config.burst_every = 0.0;
    config.burst_size = 0;
    const auto errors = config.validate();
    EXPECT_TRUE(has_message(errors, "burst_every must be > 0"));
    EXPECT_TRUE(has_message(errors, "burst_size must be >= 1"));
  }
  {
    WorkloadConfig config;
    config.arrival = ArrivalModel::kDiurnal;
    config.diurnal_period = 0.0;
    config.diurnal_amplitude = 1.0;
    const auto errors = config.validate();
    EXPECT_TRUE(has_message(errors, "diurnal_period must be > 0"));
    EXPECT_TRUE(has_message(errors, "diurnal_amplitude must be in [0, 1)"));
  }
  {
    WorkloadConfig config;
    config.size_min = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "size_min must be > 0"));
  }
  {
    WorkloadConfig config;
    config.size_min = 5.0;
    config.size_max = 1.0;
    EXPECT_TRUE(has_message(config.validate(), "must not exceed size_max"));
  }
  {
    WorkloadConfig config;
    config.pareto_alpha = 0.0;
    EXPECT_TRUE(has_message(config.validate(), "pareto_alpha must be > 0"));
  }
  {
    WorkloadConfig config;
    config.size = SizeModel::kBimodal;
    config.bimodal_long_fraction = 1.5;
    EXPECT_TRUE(has_message(config.validate(),
                            "bimodal_long_fraction must be in [0, 1]"));
  }
  {
    WorkloadConfig config;
    config.eps = 0.5;
    config.slack_hi = 0.2;
    EXPECT_TRUE(has_message(config.validate(), "must be >= eps"));
  }
}

TEST(WorkloadValidate, GenerateThrowsListingEveryProblem) {
  WorkloadConfig config;
  config.n = 0;
  config.eps = -1.0;
  config.size_min = 0.0;
  try {
    (void)generate_workload(config);
    FAIL() << "generate_workload accepted an invalid config";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid WorkloadConfig"), std::string::npos);
    EXPECT_NE(what.find("n must be >= 1"), std::string::npos);
    EXPECT_NE(what.find("eps must be > 0"), std::string::npos);
    EXPECT_NE(what.find("size_min must be > 0"), std::string::npos);
  }
}

// ---------- scenario registry ----------

TEST(ScenarioRegistry, NamesAreStable) {
  EXPECT_EQ(scenario_names(),
            (std::vector<std::string>{"cloud-burst", "overload", "diurnal"}));
  for (const std::string& name : scenario_names()) {
    const WorkloadConfig config = scenario(name, kEps, 7);
    EXPECT_TRUE(config.validate().empty()) << name;
    EXPECT_DOUBLE_EQ(config.eps, kEps) << name;
    EXPECT_EQ(config.seed, 7u) << name;
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsNamingTheKnownOnes) {
  try {
    (void)scenario("cloudburst", kEps, 1);
    FAIL() << "unknown scenario accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown workload scenario \"cloudburst\""),
              std::string::npos);
    EXPECT_NE(what.find("diurnal"), std::string::npos);
  }
}

// ---------- AdmissionServerConfig / GatewayConfig validation ----------

TEST(ServerValidate, DefaultsAreValid) {
  EXPECT_TRUE(AdmissionServerConfig{}.validate().empty());
}

TEST(ServerValidate, EveryKnobHasItsOwnMessage) {
  {
    AdmissionServerConfig config;
    config.bind_address.clear();
    EXPECT_TRUE(has_message(config.validate(), "bind_address"));
  }
  {
    AdmissionServerConfig config;
    config.backlog = 0;
    EXPECT_TRUE(has_message(config.validate(), "backlog must be >= 1"));
  }
  {
    AdmissionServerConfig config;
    config.loops = 0;
    EXPECT_TRUE(has_message(config.validate(), "loops must be >= 1"));
  }
  {
    AdmissionServerConfig config;
    config.max_http_request = 10;
    EXPECT_TRUE(
        has_message(config.validate(), "max_http_request must be >= 64"));
  }
  {
    AdmissionServerConfig config;
    config.idle_timeout = std::chrono::milliseconds(-1);
    EXPECT_TRUE(has_message(config.validate(), "idle_timeout must be >= 0"));
  }
  {
    AdmissionServerConfig config;
    config.idle_timeout = std::chrono::milliseconds(100);
    config.reap_interval = std::chrono::milliseconds(0);
    EXPECT_TRUE(has_message(config.validate(), "reap_interval"));
  }
  {
    AdmissionServerConfig config;
    config.accept_backoff = std::chrono::milliseconds(0);
    EXPECT_TRUE(has_message(config.validate(), "accept_backoff"));
  }
}

TEST(ServerValidate, NestedGatewayProblemsArePrefixed) {
  AdmissionServerConfig config;
  config.gateway.shards = 0;
  const auto errors = config.validate();
  EXPECT_TRUE(has_message(errors, "gateway: "));
}

TEST(GatewayValidate, SupervisorRestartProblemsArePrefixed) {
  // Restart pacing belongs to the shard supervisor alone: a failover
  // driver has neither knob.
  GatewayConfig config;
  config.supervisor.max_attempts = -1;
  config.supervisor.backoff.factor = 0.5;
  const auto errors = config.validate();
  EXPECT_TRUE(has_message(errors, "supervisor: max_attempts must be >= 0"));
  EXPECT_TRUE(has_message(errors, "supervisor: backoff.factor must be >= 1"));
}

}  // namespace
}  // namespace slacksched
