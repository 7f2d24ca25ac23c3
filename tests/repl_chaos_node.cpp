// One node of the replication chaos harness, run as its own process so a
// SIGKILL fault takes the whole node down — no destructors, no flushes,
// exactly the node-failure model the replicated commit log must survive.
// The gtest driver (test_replication_chaos.cpp) forks this binary, waits
// for the kill, and checks the durability properties against the files
// the dead process left behind.
//
// Roles:
//
//   leader <port> <wal_dir> <ledger_dir> <site> <hit> <seed> <jobs>
//       Runs an AdmissionGateway replicating to 127.0.0.1:<port>, with a
//       SIGKILL trigger armed at the named fault site (commit | fsync |
//       frame | batch | none) on its <hit>-th arrival. Every follower-ack
//       watermark is journaled durably (pwrite + fsync) to
//       <ledger_dir>/ack-<shard>.bin BEFORE the next submission proceeds,
//       so the driver knows a lower bound on what the dead leader had been
//       promised was replicated. The id of every ACCEPTED the gateway hands
//       to on_decision — what a client would be told — is appended durably
//       to <ledger_dir>/accepted.bin before the callback returns. Jobs go
//       in waves, each submitted once the previous one is decided, so the
//       run crosses several group boundaries. Prints "DONE <accepted>" on
//       clean exit.
//
//   promote <wal_dir> <shards> <kill_shard>
//       Promotes the replica logs with a SIGKILL armed at the kFailover
//       site of shard <kill_shard> (-1: no kill) — the follower dying
//       during its own promotion. Prints "PROMOTED <records>" on success.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "core/threshold.hpp"
#include "replication/failover.hpp"
#include "replication/replicator.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"

namespace {

using namespace slacksched;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s leader <port> <wal_dir> <ledger_dir> <site> <hit> "
               "<seed> <jobs>\n"
               "       %s promote <wal_dir> <shards> <kill_shard>\n",
               argv0, argv0);
  return 2;
}

bool site_from_name(const std::string& name, FaultSite* site) {
  if (name == "commit") *site = FaultSite::kCommit;
  else if (name == "fsync") *site = FaultSite::kFsync;
  else if (name == "frame") *site = FaultSite::kReplicationFrame;
  else if (name == "batch") *site = FaultSite::kWorkerPanic;
  else return false;
  return true;
}

ShardSchedulerFactory factory() {
  return [](int) { return std::make_unique<ThresholdScheduler>(0.1, 4); };
}

/// Durable journal of the highest follower-acked watermark per shard. A
/// kill between the follower's ack and the journal write only
/// under-reports — the driver's "replica >= ledger" property stays sound.
class AckLedger {
 public:
  AckLedger(const std::string& dir, int shards) {
    for (int s = 0; s < shards; ++s) {
      const std::string path = dir + "/ack-" + std::to_string(s) + ".bin";
      fds_.push_back(::open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC,
                            0644));
    }
  }
  ~AckLedger() {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  void record(int shard, std::uint64_t watermark) {
    const int fd = fds_[static_cast<std::size_t>(shard)];
    if (fd < 0) return;
    char bytes[8];
    std::memcpy(bytes, &watermark, 8);  // LE on every supported target
    if (::pwrite(fd, bytes, 8, 0) == 8) (void)::fsync(fd);
  }

 private:
  std::vector<int> fds_;
};

/// Durable journal of every accepted job id handed to on_decision, one i64
/// per accept in decision order. An id is on disk before the callback
/// returns, so a kill never loses a told accept from the journal.
class AcceptJournal {
 public:
  explicit AcceptJournal(const std::string& dir)
      : fd_(::open((dir + "/accepted.bin").c_str(),
                   O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644)) {}
  ~AcceptJournal() {
    if (fd_ >= 0) ::close(fd_);
  }

  void record(JobId id) {
    if (fd_ < 0) return;
    const auto value = static_cast<std::int64_t>(id);
    char bytes[8];
    std::memcpy(bytes, &value, 8);  // LE on every supported target
    if (::pwrite(fd_, bytes, 8, static_cast<off_t>(count_ * 8)) == 8) {
      (void)::fsync(fd_);
      ++count_;
    }
  }

 private:
  int fd_;
  std::size_t count_ = 0;
};

int run_leader(int argc, char** argv) {
  if (argc != 9) return usage(argv[0]);
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[2]));
  const std::string wal_dir = argv[3];
  const std::string ledger_dir = argv[4];
  const std::string site_name = argv[5];
  const auto hit = static_cast<std::uint64_t>(std::atoll(argv[6]));
  const auto seed = static_cast<std::uint64_t>(std::atoll(argv[7]));
  const auto jobs = static_cast<std::size_t>(std::atoll(argv[8]));

  FaultPlan plan;
  if (site_name != "none") {
    FaultSite site;
    if (!site_from_name(site_name, &site)) return usage(argv[0]);
    plan.add(FaultTrigger{site, 0, hit, FaultAction::kKill});
  }
  FaultInjector injector(std::move(plan));
  AckLedger ledger(ledger_dir, 1);
  AcceptJournal told(ledger_dir);

  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = 512;
  config.batch_size = 32;
  config.wal_dir = wal_dir;
  config.fault_injector = &injector;
  config.replication.emplace();
  config.replication->port = port;
  config.replication->faults = &injector;
  config.replication->on_ack = [&ledger](int shard, std::uint64_t mark) {
    ledger.record(shard, mark);
  };
  std::atomic<std::size_t> decided{0};
  config.on_decision = [&told, &decided](int, const Job& job,
                                         const Decision& decision,
                                         std::uint64_t) {
    if (decision.accepted) told.record(job.id);
    decided.fetch_add(1);
  };

  AdmissionGateway gateway(config, factory());
  constexpr std::size_t kWave = 40;  // batch_size 32: two pops
  SplitMix64 mix(seed);
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i + 1);
    job.release = 0.0;
    // Seed-varied sizes move the kill point around without risking a
    // reject (the deadline keeps every job trivially feasible).
    job.proc = 0.5 + static_cast<double>(mix.next() >> 11) * 0x1p-53;
    job.deadline = 1e9;
    if (gateway.submit(job) != Outcome::kEnqueued) {
      std::fprintf(stderr, "submission %zu shed unexpectedly\n", i);
      return 1;
    }
    // A shard with a WAL decides its whole backlog under one sync, so a
    // run submitted at once would cross one or two group boundaries and
    // the per-group sites (fsync, frame, batch) would fire for the first
    // seeds only. A wave of more than one pop is usually one group of two.
    if ((i + 1) % kWave != 0 && i + 1 != jobs) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (decided.load() < i + 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "wave ending at job %zu undecided\n", i + 1);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const GatewayResult result = gateway.finish();
  if (!result.clean()) {
    std::fprintf(stderr, "unclean drain: %s\n",
                 result.errors.empty() ? result.first_violation().c_str()
                                       : result.errors.front().c_str());
    return 1;
  }
  std::printf("DONE %llu\n",
              static_cast<unsigned long long>(result.merged.accepted));
  return 0;
}

int run_promote(int argc, char** argv) {
  if (argc != 5) return usage(argv[0]);
  const std::string wal_dir = argv[2];
  const int shards = std::atoi(argv[3]);
  const int kill_shard = std::atoi(argv[4]);

  FaultPlan plan;
  if (kill_shard >= 0) {
    plan.add(FaultTrigger{FaultSite::kFailover, kill_shard, 1,
                          FaultAction::kKill});
  }
  FaultInjector injector(std::move(plan));

  GatewayConfig config;
  config.shards = shards;
  config.queue_capacity = 512;
  config.batch_size = 32;
  config.wal_dir = wal_dir;

  repl::PromotionResult promoted =
      repl::promote_replica(config, factory(), &injector);
  if (!promoted.ok) {
    std::fprintf(stderr, "promotion failed: %s\n", promoted.error.c_str());
    return 1;
  }
  std::printf("PROMOTED %llu\n",
              static_cast<unsigned long long>(promoted.records_recovered));
  (void)promoted.gateway->finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string role = argv[1];
  if (role == "leader") return run_leader(argc, argv);
  if (role == "promote") return run_promote(argc, argv);
  return usage(argv[0]);
}
