// Deterministic job-to-shard routing. The gateway partitions the job
// stream across shards before any scheduling happens, so the same policy,
// shard count and submission order always reproduce the same partition —
// a sharded run is therefore directly comparable against a single-engine
// run on the merged instance. The router's choice is final: a job is
// decided on its shard or refused, never sent to another shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "job/job.hpp"

namespace slacksched {

/// How the gateway assigns an incoming job to a shard.
enum class RoutingPolicy {
  kRoundRobin,  ///< cyclic by submission order (balanced, order-dependent)
  kHash,        ///< splitmix64 of the job id (sticky, order-independent)
};

[[nodiscard]] std::string to_string(RoutingPolicy policy);

/// Stateless for kHash; a single atomic cursor for kRoundRobin. With one
/// producer both policies are fully deterministic; with concurrent
/// producers kHash stays deterministic per job while kRoundRobin remains
/// balanced but interleaving-dependent.
class ShardRouter {
 public:
  ShardRouter(RoutingPolicy policy, int shards);

  /// Shard index in [0, shards) for this job.
  [[nodiscard]] int route(const Job& job);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] RoutingPolicy policy() const { return policy_; }

  /// Rewinds the round-robin cursor (no-op for kHash).
  void reset();

  /// The 64-bit mix (splitmix64 finalizer) used by kHash; exposed so tests
  /// can predict placements.
  [[nodiscard]] static std::uint64_t mix_id(JobId id);

 private:
  RoutingPolicy policy_;
  int shards_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace slacksched
