// What the gateway tests read off a run through the production paths: the
// decisions every shard notified through GatewayConfig::on_decision, and
// the check that a shard's settled schedule is the live tail of the full
// schedule it was cut from (a run_online result or a WAL replay).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/engine.hpp"
#include "sched/schedule.hpp"
#include "service/gateway.hpp"

namespace slacksched {

/// One decision log per shard, in that shard's decision order.
using ShardDecisionLogs = std::vector<std::vector<DecisionRecord>>;

/// Points `config.on_decision` at `logs`, sized to config.shards. Each
/// shard's consumer thread appends to its own log only; read the logs
/// after AdmissionGateway::finish() has joined the consumers. `logs` must
/// outlive the gateway.
inline void capture_decisions(GatewayConfig& config, ShardDecisionLogs& logs) {
  logs.assign(static_cast<std::size_t>(config.shards), {});
  config.on_decision = [&logs](int shard, const Job& job,
                               const Decision& decision, std::uint64_t) {
    logs[static_cast<std::size_t>(shard)].push_back({job, decision});
  };
}

/// The settling contract: machine by machine, the placements `held` still
/// holds are exactly the last ones of `full`, and the whole-run aggregates
/// (job count, volume, makespan, every frontier) equal `full`'s.
inline void expect_held_suffix(const Schedule& held, const Schedule& full) {
  ASSERT_EQ(held.machines(), full.machines());
  EXPECT_EQ(held.job_count(), full.job_count());
  EXPECT_EQ(held.total_volume(), full.total_volume());
  EXPECT_EQ(held.makespan(), full.makespan());
  for (int m = 0; m < full.machines(); ++m) {
    EXPECT_EQ(held.frontier(m), full.frontier(m)) << "machine " << m;
    const std::vector<Placement>& tail = held.on_machine(m);
    const std::vector<Placement>& all = full.on_machine(m);
    ASSERT_LE(tail.size(), all.size()) << "machine " << m;
    const std::size_t offset = all.size() - tail.size();
    for (std::size_t i = 0; i < tail.size(); ++i) {
      const Placement& a = tail[i];
      const Placement& b = all[offset + i];
      EXPECT_EQ(a.job, b.job) << "machine " << m << " placement " << i;
      EXPECT_EQ(a.start, b.start) << "machine " << m << " placement " << i;
      EXPECT_EQ(a.duration, b.duration)
          << "machine " << m << " placement " << i;
    }
  }
}

}  // namespace slacksched
