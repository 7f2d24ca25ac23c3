#include "service/fault_injection.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace slacksched {

namespace {

std::uint64_t count_key(FaultSite site, int shard) {
  return (static_cast<std::uint64_t>(shard) << 8) |
         static_cast<std::uint64_t>(site);
}

}  // namespace

std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kEnqueue:
      return "enqueue";
    case FaultSite::kDequeue:
      return "dequeue";
    case FaultSite::kCommit:
      return "commit";
    case FaultSite::kFsync:
      return "fsync";
    case FaultSite::kWorkerPanic:
      return "worker-panic";
    case FaultSite::kReplicationFrame:
      return "replication-frame";
    case FaultSite::kFailover:
      return "failover";
  }
  return "unknown";
}

InjectedFault::InjectedFault(FaultSite site, int shard, std::uint64_t hit)
    : std::runtime_error("injected fault: " + to_string(site) + " on shard " +
                         std::to_string(shard) + " (hit " +
                         std::to_string(hit) + ")"),
      site_(site),
      shard_(shard) {}

FaultPlan FaultPlan::random_crash(std::uint64_t seed, int shards,
                                  std::uint64_t max_hit) {
  SLACKSCHED_EXPECTS(shards >= 1);
  SLACKSCHED_EXPECTS(max_hit >= 1);
  SplitMix64 mix(seed);
  constexpr FaultSite kCrashSites[] = {FaultSite::kDequeue, FaultSite::kCommit,
                                       FaultSite::kFsync,
                                       FaultSite::kWorkerPanic};
  FaultTrigger trigger;
  trigger.site = kCrashSites[mix.next() % 4];
  trigger.shard = static_cast<int>(mix.next() % static_cast<std::uint64_t>(shards));
  trigger.hit = 1 + mix.next() % max_hit;
  return FaultPlan().add(trigger);
}

FaultPlan FaultPlan::random_kill(std::uint64_t seed, int shards,
                                 std::uint64_t max_hit) {
  SLACKSCHED_EXPECTS(shards >= 1);
  SLACKSCHED_EXPECTS(max_hit >= 1);
  SplitMix64 mix(seed);
  constexpr FaultSite kKillSites[] = {FaultSite::kCommit, FaultSite::kFsync,
                                      FaultSite::kReplicationFrame,
                                      FaultSite::kWorkerPanic};
  FaultTrigger trigger;
  trigger.site = kKillSites[mix.next() % 4];
  trigger.shard =
      static_cast<int>(mix.next() % static_cast<std::uint64_t>(shards));
  trigger.hit = 1 + mix.next() % max_hit;
  trigger.action = FaultAction::kKill;
  return FaultPlan().add(trigger);
}

FaultInjector::FaultInjector(FaultPlan plan) {
  armed_.reserve(plan.triggers().size());
  for (const FaultTrigger& trigger : plan.triggers()) {
    SLACKSCHED_EXPECTS(trigger.shard >= 0);
    SLACKSCHED_EXPECTS(trigger.hit >= 1);
    armed_.push_back(Armed{trigger, false});
  }
}

bool FaultInjector::fires(FaultSite site, int shard) {
  std::lock_guard lock(mutex_);
  const std::uint64_t key = count_key(site, shard);
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  std::size_t slot;
  if (it == keys_.end()) {
    slot = keys_.size();
    keys_.push_back(key);
    counts_.push_back(0);
  } else {
    slot = static_cast<std::size_t>(std::distance(keys_.begin(), it));
  }
  const std::uint64_t hit = ++counts_[slot];
  for (Armed& armed : armed_) {
    if (!armed.fired && armed.trigger.site == site &&
        armed.trigger.shard == shard && armed.trigger.hit == hit) {
      armed.fired = true;
      if (armed.trigger.action == FaultAction::kKill) {
        // Node failure, not thread failure: the process dies here, mutex
        // held, buffers unflushed — the honest SIGKILL the replication
        // property tests are built on.
        (void)::kill(::getpid(), SIGKILL);
      }
      return true;
    }
  }
  return false;
}

std::uint64_t FaultInjector::hits(FaultSite site, int shard) const {
  std::lock_guard lock(mutex_);
  const std::uint64_t key = count_key(site, shard);
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  if (it == keys_.end()) return 0;
  return counts_[static_cast<std::size_t>(std::distance(keys_.begin(), it))];
}

std::size_t FaultInjector::fired() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const Armed& armed : armed_) {
    if (armed.fired) ++n;
  }
  return n;
}

}  // namespace slacksched
