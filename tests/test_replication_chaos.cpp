// Process-kill chaos suite for the replicated commit log. Each scenario
// forks the repl_chaos_node binary as a leader replicating into an
// in-process ReplicaServer, SIGKILLs it at a seeded fault site (mid-batch
// commit, mid-fsync, mid-replication-frame, batch boundary), and checks
// the durability contract against the corpse:
//
//   prefix     the replica's log and the dead leader's log agree byte-for
//              byte over their common prefix — replication never reorders,
//              rewrites or invents records
//   ack bound  every watermark the follower ever acknowledged (journaled
//              durably by the leader before proceeding) is present in the
//              replica's log — an acked-per-contract commitment survives
//              the node loss
//   told       every ACCEPTED the leader handed to on_decision (journaled
//              durably before the callback returned) is in the dead
//              leader's log, in the replica's log and in the gateway
//              promoted from it — no client holds an accept the node loss
//              erased
//   promote    the replica's logs promote into a serving gateway with full
//              commitment re-validation, each job id appearing exactly
//              once — nothing double-issued, nothing broken
//
// The matrix runs 6 seeds x 4 kill sites; a separate
// scenario kills the follower during its own promotion and proves a second
// promotion still lands on the same records.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold.hpp"
#include "replication/failover.hpp"
#include "replication/replica_server.hpp"
#include "service/commit_log.hpp"
#include "service/gateway.hpp"
#include "support/wal_schedule.hpp"

namespace slacksched::repl {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "slacksched_chaos_" + name;
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Forks and execs the chaos node binary with the given arguments.
pid_t spawn_node(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  static const std::string binary = REPL_CHAOS_NODE_PATH;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  _exit(127);
}

struct NodeExit {
  bool signaled = false;
  int signal = 0;
  int code = -1;
};

NodeExit wait_node(pid_t pid) {
  NodeExit result;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return result;
  if (WIFSIGNALED(status)) {
    result.signaled = true;
    result.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    result.code = WEXITSTATUS(status);
  }
  return result;
}

/// The 8-byte acked-watermark journal the leader maintains; 0 when the
/// leader died before journaling anything.
std::uint64_t read_ledger(const std::string& dir, int shard) {
  const std::string path = dir + "/ack-" + std::to_string(shard) + ".bin";
  std::ifstream in(path, std::ios::binary);
  std::uint64_t mark = 0;
  in.read(reinterpret_cast<char*>(&mark), 8);
  return in.gcount() == 8 ? mark : 0;
}

/// The job ids the leader journaled as told ACCEPTED, in decision order.
std::vector<std::int64_t> read_told(const std::string& dir) {
  const std::string bytes = read_file(dir + "/accepted.bin");
  std::vector<std::int64_t> ids(bytes.size() / 8);
  // An empty vector's data() may be null, which memcpy must not be given.
  if (!ids.empty()) std::memcpy(ids.data(), bytes.data(), ids.size() * 8);
  return ids;
}

/// Job ids of every whole record in a commit-log byte string.
std::vector<std::int64_t> log_job_ids(const std::string& bytes) {
  std::vector<std::int64_t> ids;
  std::size_t off = kWalHeaderBytes;
  while (off + kWalRecordBytes <= bytes.size()) {
    std::int64_t id = 0;
    std::memcpy(&id, bytes.data() + off + kWalFrameBytes, 8);
    ids.push_back(id);
    off += kWalRecordBytes;
  }
  return ids;
}

ShardSchedulerFactory threshold_factory() {
  return [](int) { return std::make_unique<ThresholdScheduler>(0.1, 4); };
}

/// The hit count arming each site, spread by seed so the kill lands at a
/// different point of the run every time. Commit hits advance once per
/// accepted record (plentiful); the other sites once per batch or frame.
std::uint64_t hit_for(const std::string& site, std::uint64_t seed) {
  return site == "commit" ? seed * 13 : seed;
}

TEST(ReplicationChaos, KilledLeaderNeverLosesAnAckedCommitment) {
  const char* kSites[] = {"commit", "fsync", "frame", "batch"};
  constexpr std::uint64_t kSeeds = 6;
  constexpr std::size_t kJobs = 256;

  int runs = 0;
  int kills = 0;
  for (const char* site : kSites) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string("site=") + site +
                   " seed=" + std::to_string(seed));
      const std::string tag = std::string(site) + "_" + std::to_string(seed);
      const std::string wal_dir = fresh_dir("leader_" + tag);
      const std::string ledger_dir = fresh_dir("ledger_" + tag);
      ReplicaServerConfig replica_config;
      replica_config.dir = fresh_dir("replica_" + tag);
      auto replica = std::make_unique<ReplicaServer>(replica_config);

      const pid_t pid = spawn_node(
          {"leader", std::to_string(replica->port()), wal_dir, ledger_dir,
           site, std::to_string(hit_for(site, seed)), std::to_string(seed),
           std::to_string(kJobs)});
      ASSERT_GT(pid, 0);
      const NodeExit exit = wait_node(pid);
      // The armed trigger SIGKILLs the node; a trigger whose site was
      // never reached that often lets the run drain clean instead.
      ASSERT_TRUE(exit.signaled ? exit.signal == SIGKILL : exit.code == 0)
          << "signal=" << exit.signal << " code=" << exit.code;
      ++runs;
      if (exit.signaled) ++kills;

      // Let the replica observe the dead leader's connection closing.
      for (int i = 0; i < 400 && replica->attached(0); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_FALSE(replica->attached(0));
      const std::uint64_t replica_records = replica->watermark(0);
      const std::string replica_log_path = replica->shard_log_path(0);
      replica->stop();
      replica.reset();

      // Prefix property: the two logs agree byte-for-byte as far as
      // both go. (The shorter side depends on where the kill landed —
      // a record can be streamed before the leader's own buffer flushed
      // to its file, and vice versa.)
      const std::string leader_log = read_file(wal_dir + "/shard-0.wal");
      const std::string replica_log = read_file(replica_log_path);
      const std::size_t common =
          std::min(leader_log.size(), replica_log.size());
      ASSERT_GE(common, kWalHeaderBytes);
      EXPECT_EQ(std::memcmp(leader_log.data(), replica_log.data(), common),
                0)
          << "logs diverged within their common prefix";

      // Ack bound: everything the follower ever acked is in its log.
      const std::uint64_t acked = read_ledger(ledger_dir, 0);
      EXPECT_GE(replica_records, acked)
          << "an acked commitment vanished from the replica";

      // Told accepts: each is durable in the dead leader's log and in the
      // replica's log (the promoted gateway is checked below).
      const std::vector<std::int64_t> told = read_told(ledger_dir);
      const std::vector<std::int64_t> leader_ids = log_job_ids(leader_log);
      const std::set<std::int64_t> in_leader(leader_ids.begin(),
                                             leader_ids.end());
      const std::vector<std::int64_t> ids = log_job_ids(replica_log);
      const std::set<std::int64_t> in_replica(ids.begin(), ids.end());
      for (const std::int64_t id : told) {
        EXPECT_TRUE(in_leader.count(id) == 1)
            << "told accept " << id << " is not in the dead leader's log";
        EXPECT_TRUE(in_replica.count(id) == 1)
            << "told accept " << id << " is not in the replica's log";
      }

      // Promotion: the replica's log replays with full commitment
      // re-validation, each job id exactly once.
      GatewayConfig promoted_config;
      promoted_config.shards = 1;
      promoted_config.queue_capacity = 512;
      promoted_config.wal_dir = replica_config.dir;
      PromotionResult promoted =
          promote_replica(promoted_config, threshold_factory());
      ASSERT_TRUE(promoted.ok) << promoted.error;
      EXPECT_EQ(promoted.records_recovered, replica_records);
      EXPECT_EQ(in_replica.size(), ids.size())
          << "a commitment was double-issued in the replica log";
      const GatewayResult served = promoted.gateway->finish();
      EXPECT_TRUE(served.clean());
      // The promoted gateway's log holds every placement it served.
      std::set<std::int64_t> in_promoted;
      for (const Placement& p :
           schedule_from_wal(promoted_config.wal_dir + "/shard-0.wal", 4)
               .all_placements()) {
        in_promoted.insert(p.job.id);
      }
      for (const std::int64_t id : told) {
        EXPECT_TRUE(in_promoted.count(id) == 1)
            << "told accept " << id << " is not in the promoted gateway";
      }
    }
  }
  // The matrix is tuned so the overwhelming majority of runs actually die
  // at their site; a mostly-clean matrix means the sites stopped firing.
  EXPECT_GT(kills * 2, runs) << kills << "/" << runs << " runs were killed";
}

TEST(ReplicationChaos, FollowerKilledMidPromotionPromotesAgain) {
  // Build two shards' worth of replica logs (a plain durable gateway run
  // writes the same format promotion reads).
  const std::string dir = fresh_dir("promote_kill");
  std::uint64_t accepted = 0;
  {
    GatewayConfig config;
    config.shards = 2;
    config.queue_capacity = 512;
    config.wal_dir = dir;
    AdmissionGateway gateway(config, threshold_factory());
    for (JobId id = 1; id <= 120; ++id) {
      Job job;
      job.id = id;
      job.release = 0.0;
      job.proc = 1.0;
      job.deadline = 1e9;
      ASSERT_EQ(gateway.submit(job), Outcome::kEnqueued);
    }
    const GatewayResult result = gateway.finish();
    ASSERT_TRUE(result.clean());
    accepted = result.merged.accepted;
    ASSERT_GT(accepted, 0u);
  }

  // The promoting process dies between shard 0 and shard 1 (kFailover
  // site of shard 1, first arrival).
  const pid_t pid = spawn_node({"promote", dir, "2", "1"});
  ASSERT_GT(pid, 0);
  const NodeExit exit = wait_node(pid);
  ASSERT_TRUE(exit.signaled);
  EXPECT_EQ(exit.signal, SIGKILL);

  // Promotion is replay-only — dying mid-way mutated nothing, so a second
  // promotion lands on exactly the original records.
  GatewayConfig config;
  config.shards = 2;
  config.queue_capacity = 512;
  config.wal_dir = dir;
  PromotionResult promoted = promote_replica(config, threshold_factory());
  ASSERT_TRUE(promoted.ok) << promoted.error;
  EXPECT_EQ(promoted.records_recovered, accepted);
  EXPECT_TRUE(promoted.gateway->finish().clean());
}

}  // namespace
}  // namespace slacksched::repl
