// Deterministic fault injection for the service layer's crash-recovery and
// failover test suites. A FaultPlan names exact hook sites ("the 3rd WAL
// append on shard 1") at which an InjectedFault fires, so a randomized
// workload plus a seeded plan reproduces the same crash bit-for-bit on
// every run — the property the crash-recovery tests and the torn-tail
// truncation tests are built on.
//
// Hook sites are always compiled in: with no injector attached a hook is a
// single null-pointer check, so production paths pay nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace slacksched {

/// Instrumented points in the shard pipeline. "Crash" sites throw
/// InjectedFault out of the worker thread (the shard marks itself failed
/// and the supervisor takes over); kEnqueue is a producer-side soft fault
/// that refuses one offered job like a full queue, alone or in a batch.
enum class FaultSite : std::uint8_t {
  kEnqueue,      ///< one offered job refused (simulated ingest drop)
  kDequeue,      ///< worker crashes right after popping a batch
  kCommit,       ///< worker crashes after the WAL append, before the
                 ///< in-memory commit (recovery must replay the record)
  kFsync,        ///< worker crashes at the fsync point of the commit log
  kWorkerPanic,  ///< worker crashes at a clean group boundary
  kReplicationFrame,  ///< leader crashes mid-way through sending one
                      ///< replication APPEND frame (torn frame on the wire)
  kFailover,  ///< follower crashes between per-shard replays during its
              ///< own promotion (failover of the failover)
};

/// What a fired trigger does. kThrow is the in-process crash model (the
/// worker thread dies, the supervisor restarts it); kKill escalates to the
/// node-failure model: the *whole process* dies by SIGKILL at the site, no
/// destructors, no flushes — exactly the crash the replicated commit log
/// and the follower's failover path must survive.
enum class FaultAction : std::uint8_t {
  kThrow,  ///< throw InjectedFault out of the calling thread
  kKill,   ///< SIGKILL the entire process at the site
};

[[nodiscard]] std::string to_string(FaultSite site);

/// Thrown at a crash site; the shard worker treats it (like any other
/// exception) as fatal and records itself as failed.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, int shard, std::uint64_t hit);

  [[nodiscard]] FaultSite site() const { return site_; }
  [[nodiscard]] int shard() const { return shard_; }

 private:
  FaultSite site_;
  int shard_;
};

/// One armed fault: fires on the `hit`-th time (1-based) the named site is
/// reached on the named shard, exactly once.
struct FaultTrigger {
  FaultSite site = FaultSite::kWorkerPanic;
  int shard = 0;
  std::uint64_t hit = 1;
  FaultAction action = FaultAction::kThrow;
};

/// An ordered set of triggers. Plans are plain data: build one explicitly
/// or derive one deterministically from a seed.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultTrigger trigger) {
    triggers_.push_back(trigger);
    return *this;
  }

  [[nodiscard]] const std::vector<FaultTrigger>& triggers() const {
    return triggers_;
  }

  /// Derives a single-crash plan from a seed: a uniformly chosen crash
  /// site (kDequeue/kCommit/kFsync/kWorkerPanic) on a uniformly chosen
  /// shard, armed at a hit count in [1, max_hit]. Equal seeds yield equal
  /// plans.
  [[nodiscard]] static FaultPlan random_crash(std::uint64_t seed, int shards,
                                              std::uint64_t max_hit);

  /// Like random_crash but the trigger SIGKILLs the whole process
  /// (FaultAction::kKill) and the site pool covers the node-failure
  /// surface: kCommit (mid-batch), kFsync (mid-fsync), kReplicationFrame
  /// (mid-frame on the replication wire), kWorkerPanic (group boundary).
  [[nodiscard]] static FaultPlan random_kill(std::uint64_t seed, int shards,
                                             std::uint64_t max_hit);

 private:
  std::vector<FaultTrigger> triggers_;
};

/// Thread-safe hit counting and one-shot trigger matching. Counters are
/// keyed by (site, shard), so a plan is deterministic in the per-shard
/// event stream regardless of cross-shard interleaving.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Counts one arrival at the site and reports whether an armed trigger
  /// fires now (each trigger fires at most once). A trigger armed with
  /// FaultAction::kKill does not return: it raises SIGKILL right here, so
  /// every crash-point macro doubles as a whole-process kill site.
  [[nodiscard]] bool fires(FaultSite site, int shard);

  /// Total arrivals observed at the site on the shard.
  [[nodiscard]] std::uint64_t hits(FaultSite site, int shard) const;

  /// Number of triggers that have fired so far.
  [[nodiscard]] std::size_t fired() const;

 private:
  struct Armed {
    FaultTrigger trigger;
    bool fired = false;
  };

  mutable std::mutex mutex_;
  std::vector<Armed> armed_;
  /// Hit counters, lazily grown; keyed by (site, shard).
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> keys_;
};

}  // namespace slacksched

// Crash hook: throws InjectedFault when an armed trigger fires.
#define SLACKSCHED_FAULT_CRASH_POINT(injector, site, shard)              \
  do {                                                                   \
    ::slacksched::FaultInjector* fi_ = (injector);                       \
    if (fi_ != nullptr && fi_->fires((site), (shard))) {                 \
      throw ::slacksched::InjectedFault((site), (shard),                 \
                                        fi_->hits((site), (shard)));     \
    }                                                                    \
  } while (false)
#define SLACKSCHED_FAULT_FIRES(injector, site, shard) \
  ((injector) != nullptr && (injector)->fires((site), (shard)))
