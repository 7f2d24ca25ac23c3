// What the gateway tests read off a run through the production paths: the
// decisions every shard notified through GatewayConfig::on_decision, and
// the check that a shard's busy-until marks are the frontiers of the full
// schedule of the same run (a run_online result, or the commit log read
// back with schedule_from_wal).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

/// Machine by machine, each busy-until mark equals `full`'s frontier: the
/// latest completion committed to that machine.
inline void expect_marks_match(std::span<const TimePoint> busy_until,
                               const Schedule& full) {
  ASSERT_EQ(busy_until.size(), static_cast<std::size_t>(full.machines()));
  for (int m = 0; m < full.machines(); ++m) {
    EXPECT_EQ(busy_until[static_cast<std::size_t>(m)], full.frontier(m))
        << "machine " << m;
  }
}

}  // namespace slacksched
