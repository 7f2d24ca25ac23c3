// Commit-log replication: wire protocol round trips and decoder framing,
// leader -> follower streaming (the follower's log must be byte-identical
// to the leader's), the fail-safe refusals (stale leader, sequence gap,
// corrupt record, torn stream — each persists nothing), catch-up of a
// behind follower in full-size frames (also when it is interrupted, or
// the follower dies or stalls mid-way), the one failure rule (a lost
// follower fails the commit path, a clean close included), the node-level
// failover FSM, and promotion of the replica logs into a serving gateway.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold.hpp"
#include "net/admission_client.hpp"
#include "replication/failover.hpp"
#include "replication/repl_protocol.hpp"
#include "replication/replica_server.hpp"
#include "replication/replicator.hpp"
#include "service/commit_log.hpp"
#include "service/fault_injection.hpp"
#include "service/gateway.hpp"
#include "support/wal_v3.hpp"
#include "workload/generators.hpp"

namespace slacksched::repl {
namespace {

constexpr int kMachines = 4;

Job make_job(JobId id, double release, double proc, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.proc = proc;
  job.deadline = deadline;
  return job;
}

/// Fresh per-test directory under the gtest temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "slacksched_repl_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

GatewayConfig leader_config(const std::string& wal_dir, int shards = 1) {
  GatewayConfig config;
  config.shards = shards;
  config.queue_capacity = 1024;
  config.batch_size = 64;
  config.wal_dir = wal_dir;
  return config;
}

ShardSchedulerFactory threshold_factory() {
  return [](int) { return std::make_unique<ThresholdScheduler>(0.1, kMachines); };
}

/// Feeds `n` easily-schedulable jobs through the gateway and finishes it.
GatewayResult run_leader(AdmissionGateway& gateway, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome outcome = gateway.submit(
        make_job(static_cast<JobId>(i + 1), 0.0, 1.0, 1e9));
    EXPECT_EQ(outcome, Outcome::kEnqueued);
  }
  return gateway.finish();
}

// ---------- protocol round trips ----------

TEST(ReplProtocol, HelloRoundTrip) {
  std::vector<char> bytes;
  HelloMsg hello;
  hello.machines = 8;
  hello.ack_mode = ReplAckMode::kAckOnBatch;
  hello.leader_records = 12345;
  encode_hello(bytes, 3, hello);

  ReplFrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  ReplFrame frame;
  ASSERT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, ReplFrameType::kHello);
  EXPECT_EQ(frame.word, 3);
  HelloMsg out;
  std::string error;
  ASSERT_TRUE(parse_hello(frame, out, &error)) << error;
  EXPECT_EQ(out.machines, 8u);
  EXPECT_EQ(out.ack_mode, ReplAckMode::kAckOnBatch);
  EXPECT_EQ(out.leader_records, 12345u);
  EXPECT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kNeedMore);

  // Ack modes 0 (the retired async mode) and 2 (the retired per-record
  // mode) are refused like any unknown byte.
  for (const int retired : {0, 2}) {
    bytes.clear();
    hello.ack_mode = static_cast<ReplAckMode>(retired);
    encode_hello(bytes, 3, hello);
    decoder.feed(bytes.data(), bytes.size());
    ASSERT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kFrame);
    EXPECT_FALSE(parse_hello(frame, out, &error));
    EXPECT_NE(error.find("unknown ack mode " + std::to_string(retired)),
              std::string::npos)
        << error;
  }
}

TEST(ReplProtocol, WatermarkFramesRoundTrip) {
  struct Case {
    void (*encode)(std::vector<char>&, std::uint16_t, std::uint64_t);
    ReplFrameType type;
  };
  const Case cases[] = {
      {encode_welcome, ReplFrameType::kWelcome},
      {encode_ack, ReplFrameType::kAck},
      {encode_heartbeat, ReplFrameType::kHeartbeat},
      {encode_heartbeat_ack, ReplFrameType::kHeartbeatAck},
  };
  for (const Case& c : cases) {
    std::vector<char> bytes;
    c.encode(bytes, 1, 0xDEADBEEFCAFEull);
    ReplFrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ReplFrame frame;
    ASSERT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kFrame);
    EXPECT_EQ(frame.type, c.type);
    std::uint64_t mark = 0;
    std::string error;
    ASSERT_TRUE(parse_watermark(frame, mark, &error)) << error;
    EXPECT_EQ(mark, 0xDEADBEEFCAFEull);
  }
}

TEST(ReplProtocol, AppendRoundTripCarriesRecordsVerbatim) {
  std::vector<char> records;
  encode_wal_record(make_job(7, 0.0, 2.0, 10.0), 1, 3.5, records);
  encode_wal_record(make_job(8, 1.0, 1.0, 9.0), 0, 4.0, records);
  ASSERT_EQ(records.size(), 2 * kWalRecordBytes);

  std::vector<char> bytes;
  encode_append(bytes, 2, 40, 2, records.data(), records.size());
  ReplFrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  ReplFrame frame;
  ASSERT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, ReplFrameType::kAppend);

  std::uint64_t base = 0;
  std::uint32_t count = 0;
  const char* shipped = nullptr;
  std::string error;
  ASSERT_TRUE(parse_append(frame, base, count, &shipped, &error)) << error;
  EXPECT_EQ(base, 40u);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(std::memcmp(shipped, records.data(), records.size()), 0);
}

TEST(ReplProtocol, NackRoundTrip) {
  std::vector<char> bytes;
  encode_nack(bytes, 0, NackReason::kSequenceGap, 17, "expected base 17");
  ReplFrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  ReplFrame frame;
  ASSERT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kFrame);
  NackMsg nack;
  std::string error;
  ASSERT_TRUE(parse_nack(frame, nack, &error)) << error;
  EXPECT_EQ(nack.reason, NackReason::kSequenceGap);
  EXPECT_EQ(nack.detail, 17u);
  EXPECT_EQ(nack.message, "expected base 17");
}

TEST(ReplProtocol, DecoderAssemblesFramesFedByteByByte) {
  std::vector<char> bytes;
  encode_heartbeat(bytes, 0, 5);
  encode_ack(bytes, 0, 6);
  ReplFrameDecoder decoder;
  ReplFrame frame;
  int frames = 0;
  for (const char byte : bytes) {
    decoder.feed(&byte, 1);
    while (decoder.next(frame) == ReplFrameDecoder::Status::kFrame) ++frames;
  }
  EXPECT_EQ(frames, 2);
}

TEST(ReplProtocol, DecoderRejectsBadVersionStickily) {
  std::vector<char> bytes;
  encode_ack(bytes, 0, 1);
  bytes[0] = 9;  // wrong version
  ReplFrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  ReplFrame frame;
  EXPECT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("version"), std::string::npos);
  // Sticky: feeding good bytes afterwards cannot resynchronize a stream.
  std::vector<char> good;
  encode_ack(good, 0, 2);
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kError);
}

TEST(ReplProtocol, DecoderRejectsUnknownTypeOversizeAndBadCrc) {
  {
    std::vector<char> bytes;
    encode_ack(bytes, 0, 1);
    bytes[1] = 99;  // unknown frame type
    ReplFrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ReplFrame frame;
    EXPECT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kError);
  }
  {
    std::vector<char> bytes;
    encode_ack(bytes, 0, 1);
    const std::uint32_t huge = kMaxReplPayload + 1;
    std::memcpy(bytes.data() + 4, &huge, 4);  // implausible payload_len
    ReplFrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ReplFrame frame;
    EXPECT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kError);
  }
  {
    std::vector<char> bytes;
    encode_ack(bytes, 0, 1);
    bytes.back() ^= 0x01;  // payload corruption -> CRC mismatch
    ReplFrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ReplFrame frame;
    EXPECT_EQ(decoder.next(frame), ReplFrameDecoder::Status::kError);
    EXPECT_NE(decoder.error().find("checksum"), std::string::npos);
  }
}

TEST(ReplProtocol, EnumNamesAreStable) {
  EXPECT_EQ(to_string(NackReason::kStaleLeader), "stale-leader");
  EXPECT_EQ(to_string(NackReason::kSequenceGap), "sequence-gap");
  EXPECT_EQ(to_string(NackReason::kCorruptRecord), "corrupt-record");
  EXPECT_EQ(to_string(NackReason::kBadState), "bad-state");
  EXPECT_EQ(to_string(ReplAckMode::kAckOnBatch), "ack-on-batch");
}

// ---------- leader -> follower streaming ----------

TEST(ReplicationStream, FollowerLogIsByteIdenticalAfterCleanDrain) {
  const std::string leader_dir = fresh_dir("stream_leader");
  const std::string replica_dir = fresh_dir("stream_replica");

  ReplicaServerConfig replica_config;
  replica_config.dir = replica_dir;
  replica_config.shards = 2;
  ReplicaServer replica(replica_config);

  GatewayConfig config = leader_config(leader_dir, 2);
  config.replication.emplace();
  config.replication->port = replica.port();
  {
    AdmissionGateway gateway(config, threshold_factory());
    const GatewayResult result = run_leader(gateway, 200);
    EXPECT_TRUE(result.clean());
    EXPECT_GT(result.merged.accepted, 0u);
  }

  std::uint64_t total = 0;
  for (int s = 0; s < 2; ++s) {
    const std::string leader_log =
        leader_dir + "/shard-" + std::to_string(s) + ".wal";
    const std::string leader_bytes = read_file(leader_log);
    const std::string replica_bytes = read_file(replica.shard_log_path(s));
    EXPECT_EQ(replica_bytes, leader_bytes)
        << "shard " << s << " replica log diverged";
    EXPECT_EQ(replica.watermark(s),
              (leader_bytes.size() - kWalHeaderBytes) / kWalRecordBytes);
    total += replica.watermark(s);
  }
  EXPECT_GT(total, 0u);
}

TEST(Replication, AckOnBatchWatermarkCoversEveryRecordAtClose) {
  const std::string leader_dir = fresh_dir("ackbatch_leader");
  const std::string replica_dir = fresh_dir("ackbatch_replica");
  ReplicaServerConfig replica_config;
  replica_config.dir = replica_dir;
  ReplicaServer replica(replica_config);

  GatewayConfig config = leader_config(leader_dir);
  config.replication.emplace();
  config.replication->port = replica.port();
  std::uint64_t last_ack = 0;
  config.replication->on_ack = [&](int, std::uint64_t mark) {
    last_ack = mark;
  };
  AdmissionGateway gateway(config, threshold_factory());
  const GatewayResult result = run_leader(gateway, 50);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(last_ack, result.merged.accepted);
  EXPECT_EQ(replica.watermark(0), result.merged.accepted);
}

// ---------- fail-safe refusals ----------

TEST(Replication, StaleLeaderIsRefusedAtHandshake) {
  const std::string leader_dir = fresh_dir("stale_leader");
  const std::string replica_dir = fresh_dir("stale_replica");
  ReplicaServerConfig replica_config;
  replica_config.dir = replica_dir;
  ReplicaServer replica(replica_config);

  GatewayConfig config = leader_config(leader_dir);
  config.replication.emplace();
  config.replication->port = replica.port();
  {
    AdmissionGateway gateway(config, threshold_factory());
    const GatewayResult result = run_leader(gateway, 50);
    ASSERT_TRUE(result.clean());
    ASSERT_GT(replica.watermark(0), 0u);
  }

  // A "new" leader that lost its log announces fewer records than the
  // follower holds: the handshake refuses and the leader must not serve.
  const std::string fresh_leader = fresh_dir("stale_leader_fresh");
  GatewayConfig stale = leader_config(fresh_leader);
  stale.replication.emplace();
  stale.replication->port = replica.port();
  EXPECT_THROW(
      { AdmissionGateway gateway(stale, threshold_factory()); }, ReplError);
  // Nothing on the replica moved.
  EXPECT_GT(replica.watermark(0), 0u);
}

/// Raw replication-protocol client for hand-forged sessions.
class RawLeader {
 public:
  explicit RawLeader(std::uint16_t port)
      : fd_(net::connect_with_timeout("127.0.0.1", port,
                                      std::chrono::milliseconds(2000))) {}
  ~RawLeader() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_bytes(const char* data, std::size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
  }
  void send_bytes(const std::vector<char>& bytes) {
    send_bytes(bytes.data(), bytes.size());
  }

  /// Blocks for the next complete frame (fails the test on stream end).
  ReplFrame read_frame() {
    ReplFrame frame;
    while (true) {
      if (decoder_.next(frame) == ReplFrameDecoder::Status::kFrame) {
        return frame;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      EXPECT_GT(n, 0) << "replica closed the stream mid-read";
      if (n <= 0) return frame;
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Sends a HELLO for shard 0; returns the follower's reply.
  ReplFrame hello(std::uint64_t leader_records,
                  std::uint32_t machines = kMachines) {
    std::vector<char> bytes;
    HelloMsg hello;
    hello.machines = machines;
    hello.ack_mode = ReplAckMode::kAckOnBatch;
    hello.leader_records = leader_records;
    encode_hello(bytes, 0, hello);
    send_bytes(bytes);
    return read_frame();
  }

  /// HELLO/WELCOME handshake; returns the follower's watermark.
  std::uint64_t handshake(std::uint64_t leader_records) {
    const ReplFrame frame = hello(leader_records);
    EXPECT_EQ(frame.type, ReplFrameType::kWelcome);
    std::uint64_t mark = 0;
    std::string error;
    EXPECT_TRUE(parse_watermark(frame, mark, &error)) << error;
    return mark;
  }

 private:
  int fd_ = -1;
  ReplFrameDecoder decoder_;
};

std::vector<char> one_record(JobId id) {
  std::vector<char> records;
  encode_wal_record(make_job(id, 0.0, 1.0, 100.0), 0, 0.0, records);
  return records;
}

TEST(Replication, SequenceGapIsNackedAndPersistsNothing) {
  ReplicaServerConfig config;
  config.dir = fresh_dir("gap_replica");
  ReplicaServer replica(config);
  RawLeader leader(replica.port());
  EXPECT_EQ(leader.handshake(0), 0u);

  const std::vector<char> records = one_record(1);
  std::vector<char> bytes;
  encode_append(bytes, 0, /*base_seq=*/5, 1, records.data(), records.size());
  leader.send_bytes(bytes);
  const ReplFrame frame = leader.read_frame();
  ASSERT_EQ(frame.type, ReplFrameType::kNack);
  NackMsg nack;
  std::string error;
  ASSERT_TRUE(parse_nack(frame, nack, &error)) << error;
  EXPECT_EQ(nack.reason, NackReason::kSequenceGap);
  EXPECT_EQ(nack.detail, 0u);  // the follower names its actual count
  EXPECT_EQ(replica.watermark(0), 0u);
}

TEST(Replication, CorruptRecordIsQuarantinedWholeFrame) {
  // Seven records with one field of one record broken — first, middle or
  // last: the whole APPEND must be refused (all-or-nothing), the valid
  // records around the broken one included.
  constexpr std::uint32_t kRecords = 7;
  const struct {
    const char* name;
    std::size_t at;  // byte offset inside the record
  } fields[] = {{"payload byte", kWalFrameBytes + 3},
                {"CRC field", 4},
                {"length field", 0}};
  for (const auto& field : fields) {
    for (const std::uint32_t bad : {0u, kRecords / 2, kRecords - 1}) {
      SCOPED_TRACE(std::string(field.name) + " of record " +
                   std::to_string(bad));
      ReplicaServerConfig config;
      config.dir = fresh_dir("corrupt_replica");
      ReplicaServer replica(config);
      RawLeader leader(replica.port());
      EXPECT_EQ(leader.handshake(0), 0u);

      std::vector<char> records;
      for (std::uint32_t i = 0; i < kRecords; ++i) {
        const std::vector<char> one = one_record(i + 1);
        records.insert(records.end(), one.begin(), one.end());
      }
      records[bad * kWalRecordBytes + field.at] ^= 0x40;
      std::vector<char> bytes;
      encode_append(bytes, 0, 0, kRecords, records.data(), records.size());
      leader.send_bytes(bytes);
      const ReplFrame frame = leader.read_frame();
      ASSERT_EQ(frame.type, ReplFrameType::kNack);
      NackMsg nack;
      std::string error;
      ASSERT_TRUE(parse_nack(frame, nack, &error)) << error;
      EXPECT_EQ(nack.reason, NackReason::kCorruptRecord);
      EXPECT_EQ(replica.watermark(0), 0u);
      EXPECT_EQ(replica.records_quarantined(), 1u);

      // The replica log holds nothing but its header (nothing leaked).
      struct stat st{};
      ASSERT_EQ(::stat(replica.shard_log_path(0).c_str(), &st), 0);
      EXPECT_EQ(static_cast<std::size_t>(st.st_size), kWalHeaderBytes);
    }
  }
}

TEST(Replication, TornFrameAtDisconnectIsDiscarded) {
  ReplicaServerConfig config;
  config.dir = fresh_dir("torn_replica");
  ReplicaServer replica(config);
  {
    RawLeader leader(replica.port());
    EXPECT_EQ(leader.handshake(0), 0u);

    // One whole APPEND (persisted + acked)...
    const std::vector<char> records = one_record(1);
    std::vector<char> bytes;
    encode_append(bytes, 0, 0, 1, records.data(), records.size());
    leader.send_bytes(bytes);
    const ReplFrame ack = leader.read_frame();
    ASSERT_EQ(ack.type, ReplFrameType::kAck);

    // ...then half of a second frame, torn by the connection dying.
    const std::vector<char> more = one_record(2);
    std::vector<char> torn;
    encode_append(torn, 0, 1, 1, more.data(), more.size());
    leader.send_bytes(torn.data(), torn.size() / 2);
    leader.close();
  }
  // Give the handler a moment to observe the close and detach.
  for (int i = 0; i < 200 && replica.attached(0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(replica.attached(0));
  EXPECT_EQ(replica.watermark(0), 1u);  // the torn frame persisted nothing

  // A reconnecting leader finds exactly the pre-tear watermark.
  RawLeader again(replica.port());
  EXPECT_EQ(again.handshake(2), 1u);
}

TEST(Replication, RefusedHelloLeavesTheAttachedSessionServing) {
  ReplicaServerConfig config;
  config.dir = fresh_dir("refused_hello_replica");
  ReplicaServer replica(config);
  RawLeader leader(replica.port());
  EXPECT_EQ(leader.handshake(0), 0u);
  const auto append = [&leader](std::uint64_t base) {
    const std::vector<char> records = one_record(static_cast<JobId>(base + 1));
    std::vector<char> bytes;
    encode_append(bytes, 0, base, 1, records.data(), records.size());
    leader.send_bytes(bytes);
    return leader.read_frame();
  };
  ASSERT_EQ(append(0).type, ReplFrameType::kAck);

  // A second connection's HELLO for another machine count is refused...
  {
    RawLeader intruder(replica.port());
    const ReplFrame reply = intruder.hello(1, kMachines + 1);
    ASSERT_EQ(reply.type, ReplFrameType::kNack);
    NackMsg nack;
    std::string error;
    ASSERT_TRUE(parse_nack(reply, nack, &error)) << error;
    EXPECT_EQ(nack.reason, NackReason::kBadState) << nack.message;
  }
  // ...and the attached session's log and stream are untouched.
  const ReplFrame ack = append(1);
  ASSERT_EQ(ack.type, ReplFrameType::kAck);
  std::uint64_t mark = 0;
  std::string error;
  ASSERT_TRUE(parse_watermark(ack, mark, &error)) << error;
  EXPECT_EQ(mark, 2u);
  EXPECT_EQ(replica.watermark(0), 2u);
  EXPECT_TRUE(replica.attached(0));
}

/// A 16-byte replica log header with the given fields.
std::vector<char> wal_header(const char* magic, std::uint32_t version,
                             std::uint32_t machines) {
  std::vector<char> header(kWalHeaderBytes);
  std::memcpy(header.data(), magic, sizeof(kWalMagic));
  std::memcpy(header.data() + 8, &version, sizeof(version));
  std::memcpy(header.data() + 12, &machines, sizeof(machines));
  return header;
}

TEST(Replication, ReplicaLogHeaderIsRefusedOrReset) {
  // An 8-machine leader meets a replica log already on disk. A whole
  // header that is not its own — a whole version-3 log included — is
  // refused and left untouched; stray bytes shorter than a header are
  // reset, like the writer's own torn header.
  constexpr std::uint32_t kLeaderMachines = 8;
  const std::vector<char> fresh =
      wal_header(kWalMagic, kWalVersion, kLeaderMachines);
  struct Case {
    const char* name;
    std::vector<char> on_disk;
    bool refused;
  };
  const Case cases[] = {
      {"bad_magic", wal_header("NOTAWAL0", kWalVersion, kLeaderMachines),
       true},
      {"version_1", wal_header(kWalMagic, 1, kLeaderMachines), true},
      {"previous_format", wal_header("SLKWAL02", 2, kLeaderMachines), true},
      {"v3_log", v3_wal(kLeaderMachines, 3), true},
      {"four_machines", wal_header(kWalMagic, kWalVersion, 4), true},
      {"nine_stray_bytes", std::vector<char>(9, 'S'), false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ReplicaServerConfig config;
    config.dir = fresh_dir(std::string("header_") + c.name);
    const std::string log_path = config.dir + "/shard-0.wal";
    {
      std::ofstream out(log_path, std::ios::binary);
      out.write(c.on_disk.data(),
                static_cast<std::streamsize>(c.on_disk.size()));
    }
    ReplicaServer replica(config);
    {
      RawLeader leader(replica.port());
      const ReplFrame reply = leader.hello(0, kLeaderMachines);
      std::string error;
      if (c.refused) {
        ASSERT_EQ(reply.type, ReplFrameType::kNack);
        NackMsg nack;
        ASSERT_TRUE(parse_nack(reply, nack, &error)) << error;
        EXPECT_EQ(nack.reason, NackReason::kBadState) << nack.message;
      } else {
        ASSERT_EQ(reply.type, ReplFrameType::kWelcome);
        std::uint64_t mark = 1;
        ASSERT_TRUE(parse_watermark(reply, mark, &error)) << error;
        EXPECT_EQ(mark, 0u);
      }
    }
    const std::vector<char>& expect = c.refused ? c.on_disk : fresh;
    EXPECT_EQ(read_file(log_path), std::string(expect.begin(), expect.end()));
    EXPECT_EQ(replica.watermark(0), 0u);

    // A replicated leader opens its log only against a usable replica.
    ReplicationConfig repl;
    repl.port = replica.port();
    repl.heartbeat_interval = std::chrono::milliseconds(0);
    ShardReplicator replicator(0, repl);
    CommitLogConfig log_config;
    log_config.observer = &replicator;
    const std::string leader_log =
        fresh_dir(std::string("header_leader_") + c.name) + "/shard-0.wal";
    if (c.refused) {
      EXPECT_THROW(
          (void)CommitLog::open(leader_log, kLeaderMachines, log_config),
          ReplError);
    } else {
      auto log = CommitLog::open(leader_log, kLeaderMachines, log_config);
      EXPECT_TRUE(replicator.connected());
      log->close();
    }
  }
}

// ---------- catch-up ----------

/// A leader history longer than two full catch-up frames.
constexpr std::uint64_t kHistoryRecords = 2 * kCatchUpRecords + 1000;

/// Writes `records` non-overlapping commitments (unit jobs laid end to end,
/// round-robin over the machines) as `dir`'s shard-0 log — a long history
/// without pushing every job through a gateway.
void write_history(const std::string& dir, std::uint64_t records) {
  CommitLogConfig config;
  config.fsync = FsyncPolicy::kNever;
  auto log = CommitLog::open(dir + "/shard-0.wal", kMachines, config);
  for (std::uint64_t i = 0; i < records; ++i) {
    const double slot = static_cast<double>(i / kMachines);
    log->append(make_job(static_cast<JobId>(i + 1), slot, 1.0, 1e9),
                static_cast<int>(i % kMachines), slot);
  }
  log->close();
}

std::uint64_t frames_for(std::uint64_t records) {
  return (records + kCatchUpRecords - 1) / kCatchUpRecords;
}

GatewayConfig replicated_config(const std::string& leader_dir,
                                std::uint16_t port) {
  GatewayConfig config = leader_config(leader_dir);
  config.replication.emplace();
  config.replication->port = port;
  return config;
}

TEST(Replication, BehindFollowerIsCaughtUpFromTheLeaderLog) {
  const std::string leader_dir = fresh_dir("catchup_leader");
  write_history(leader_dir, kHistoryRecords);

  // Replication attaches to an empty follower: on_open ships the whole
  // history, in full-size frames, before any new record streams.
  ReplicaServerConfig replica_config;
  replica_config.dir = fresh_dir("catchup_replica");
  ReplicaServer replica(replica_config);
  {
    AdmissionGateway gateway(replicated_config(leader_dir, replica.port()),
                             threshold_factory());
    EXPECT_EQ(replica.watermark(0), kHistoryRecords);
    EXPECT_EQ(gateway.replicator(0)->frames_sent(),
              frames_for(kHistoryRecords));
    const GatewayResult result = run_leader(gateway, 40);
    EXPECT_TRUE(result.clean());
    EXPECT_GT(result.merged.accepted, 0u);
  }
  EXPECT_EQ(read_file(replica.shard_log_path(0)),
            read_file(leader_dir + "/shard-0.wal"));
}

TEST(Replication, InterruptedCatchUpResumesExactly) {
  const std::string leader_dir = fresh_dir("resume_leader");
  write_history(leader_dir, kHistoryRecords);
  ReplicaServerConfig replica_config;
  replica_config.dir = fresh_dir("resume_replica");
  ReplicaServer replica(replica_config);

  // The leader dies with half of catch-up frame 2 on the wire, frame 1
  // possibly not yet acknowledged.
  FaultInjector faults(FaultPlan().add(
      {FaultSite::kReplicationFrame, 0, 2, FaultAction::kThrow}));
  GatewayConfig config = replicated_config(leader_dir, replica.port());
  config.replication->faults = &faults;
  EXPECT_THROW(
      { AdmissionGateway gateway(config, threshold_factory()); },
      InjectedFault);
  for (int i = 0; i < 400 && replica.attached(0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(replica.attached(0));

  // Frame 1 was whole on the wire, so the follower persisted exactly it;
  // the torn frame 2 left no bytes behind.
  const std::uint64_t mark = replica.watermark(0);
  EXPECT_EQ(mark, kCatchUpRecords);
  const std::string leader_bytes = read_file(leader_dir + "/shard-0.wal");
  const std::string replica_bytes = read_file(replica.shard_log_path(0));
  ASSERT_EQ(replica_bytes.size(), kWalHeaderBytes + mark * kWalRecordBytes);
  EXPECT_EQ(replica_bytes, leader_bytes.substr(0, replica_bytes.size()));

  // A clean re-open resumes from WELCOME's watermark: only the missing
  // records travel, and the logs end identical.
  {
    AdmissionGateway gateway(replicated_config(leader_dir, replica.port()),
                             threshold_factory());
    EXPECT_EQ(replica.watermark(0), kHistoryRecords);
    EXPECT_EQ(gateway.replicator(0)->frames_sent(),
              frames_for(kHistoryRecords - mark));
    EXPECT_TRUE(gateway.finish().clean());
  }
  EXPECT_EQ(read_file(replica.shard_log_path(0)),
            read_file(leader_dir + "/shard-0.wal"));
}

/// A hand-driven follower for one leader session: answers HELLO with
/// WELCOME(0) (and, if asked, an ACK forged ahead of any APPEND), then
/// either hangs up or goes silent — open, never reading.
class RawFollower {
 public:
  /// `rcvbuf` > 0 shrinks the accepted socket's receive buffer.
  explicit RawFollower(int rcvbuf = 0)
      : listen_fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (rcvbuf > 0) {
      (void)setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    EXPECT_EQ(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
        0);
    port_ = ntohs(addr.sin_port);
  }

  ~RawFollower() {
    stop();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Serves the next session on a background thread.
  void serve(bool hang_up, std::uint64_t early_ack = 0) {
    thread_ = std::thread([this, hang_up, early_ack] {
      conn_fd_ = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (conn_fd_ < 0) return;
      ReplFrameDecoder decoder;
      ReplFrame hello;
      while (decoder.next(hello) != ReplFrameDecoder::Status::kFrame) {
        char buf[64];
        const ssize_t n = ::recv(conn_fd_, buf, sizeof(buf), 0);
        if (n <= 0) return;
        decoder.feed(buf, static_cast<std::size_t>(n));
      }
      std::vector<char> reply;
      encode_welcome(reply, hello.word, 0);
      if (early_ack > 0) encode_ack(reply, hello.word, early_ack);
      (void)::send(conn_fd_, reply.data(), reply.size(), MSG_NOSIGNAL);
      if (hang_up) {
        ::close(conn_fd_);
        conn_fd_ = -1;
      }
    });
  }

  /// Joins the session thread, then closes the session; closing with
  /// unread bytes resets the connection, unblocking a stalled sender.
  void stop() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks a pending accept
    if (thread_.joinable()) thread_.join();
    if (conn_fd_ >= 0) ::close(conn_fd_);
    conn_fd_ = -1;
  }

 private:
  int listen_fd_;
  std::uint16_t port_ = 0;
  int conn_fd_ = -1;
  std::thread thread_;
};

TEST(Replication, FollowerThatDiesDuringCatchUpFailsTheOpen) {
  const std::string leader_dir = fresh_dir("dies_leader");
  write_history(leader_dir, 2000);
  RawFollower follower;
  follower.serve(/*hang_up=*/true);
  GatewayConfig config = replicated_config(leader_dir, follower.port());
  EXPECT_THROW(
      { AdmissionGateway gateway(config, threshold_factory()); }, ReplError);
}

TEST(Replication, StalledFollowerFailsTheOpenWithinTheAckTimeout) {
  // A follower that takes the session and then never reads. Its forged
  // early ACK keeps the leader out of every ack wait, so the leader sends
  // frame after frame until the socket buffers (a few MiB on loopback)
  // fill and the send itself stalls.
  constexpr std::uint64_t kRecords = 8 * kCatchUpRecords;
  const std::string leader_dir = fresh_dir("stalled_leader");
  write_history(leader_dir, kRecords);
  RawFollower follower(/*rcvbuf=*/4096);
  follower.serve(/*hang_up=*/false, /*early_ack=*/kRecords);

  ReplicationConfig config;
  config.port = follower.port();
  config.ack_timeout = std::chrono::milliseconds(300);
  config.heartbeat_interval = std::chrono::milliseconds(0);
  ShardReplicator replicator(0, config);
  const auto start = std::chrono::steady_clock::now();
  auto open = std::async(std::launch::async, [&] {
    replicator.on_open(leader_dir + "/shard-0.wal", kMachines, kRecords);
  });
  if (open.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "on_open hung on a follower that stopped reading";
    follower.stop();  // resets the connection, failing the stuck send
  }
  try {
    open.get();
    ADD_FAILURE() << "on_open succeeded against a follower that never read";
  } catch (const ReplError& e) {
    EXPECT_NE(std::string(e.what()).find("send timed out"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(3));
  EXPECT_FALSE(replicator.connected());
}

// ---------- the one failure rule ----------

TEST(Replication, SyncModeRefusesToServeWithoutAFollower) {
  // Port 1 on loopback: nothing listens there.
  GatewayConfig config = leader_config(fresh_dir("noreplica_sync"));
  config.replication.emplace();
  config.replication->port = 1;
  config.replication->connect_timeout = std::chrono::milliseconds(200);
  EXPECT_THROW(
      { AdmissionGateway gateway(config, threshold_factory()); }, ReplError);
}

TEST(Replication, CloseWithLostSessionBelowWatermarkThrows) {
  ReplicaServerConfig replica_config;
  replica_config.dir = fresh_dir("close_lost_replica");
  ReplicaServer replica(replica_config);
  ReplicationConfig config;
  config.port = replica.port();
  config.heartbeat_interval = std::chrono::milliseconds(5);
  ShardReplicator replicator(0, config);
  replicator.on_open(fresh_dir("close_lost_leader") + "/shard-0.wal",
                     kMachines, 0);
  const auto append = [&replicator](JobId id) {
    const std::vector<char> record = one_record(id);
    replicator.on_record(record.data(), record.size(),
                         static_cast<std::uint64_t>(id));
  };
  for (JobId id = 1; id <= 4; ++id) append(id);
  replicator.on_batch(4);
  ASSERT_EQ(replicator.acked_watermark(), 4u);
  for (JobId id = 5; id <= 7; ++id) append(id);  // buffered, never sent

  // The follower goes away; the heartbeat tears the session down.
  replica.stop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (replicator.connected() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(replicator.connected());

  // Closing at the acked watermark is clean; closing past it is not — the
  // follower lacks records 5..7.
  EXPECT_NO_THROW(replicator.on_close(4));
  EXPECT_THROW(replicator.on_close(7), ReplError);
  EXPECT_EQ(replicator.acked_watermark(), 4u);
}

TEST(Replication, ConfigValidateNamesProblems) {
  ReplicationConfig config;
  config.port = 0;
  config.ack_timeout = std::chrono::milliseconds(0);
  const std::vector<std::string> problems = config.validate();
  EXPECT_GE(problems.size(), 2u);

  GatewayConfig gateway = leader_config("");
  gateway.replication.emplace();
  gateway.replication->port = 9;
  const std::vector<std::string> errors = gateway.validate();
  bool names_wal = false;
  for (const std::string& e : errors) {
    if (e.find("wal_dir") != std::string::npos) names_wal = true;
  }
  EXPECT_TRUE(names_wal) << "replication without wal_dir must be refused";
}

// ---------- failover FSM ----------

FailoverConfig tight_failover() {
  FailoverConfig config;
  config.poll_interval = std::chrono::milliseconds(5);
  config.stall_threshold = std::chrono::milliseconds(50);
  config.down_threshold = std::chrono::milliseconds(200);
  return config;
}

TEST(Failover, LeaderThatNeverAppearsIsDeclaredDownOnce) {
  ReplicaServerConfig config;
  config.dir = fresh_dir("failover_silent");
  ReplicaServer replica(config);
  int downs = 0;
  std::chrono::steady_clock::time_point started{};
  std::chrono::steady_clock::duration broke_after{};
  FailoverDriver driver(replica, tight_failover(), [&] {
    ++downs;
    broke_after = std::chrono::steady_clock::now() - started;
  });
  started = std::chrono::steady_clock::now();
  driver.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!driver.circuit_broken() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  driver.stop();
  EXPECT_EQ(driver.health(), Health::kDown);
  EXPECT_TRUE(driver.circuit_broken());
  EXPECT_EQ(downs, 1);
  // The one rule: Down only once the silence reaches down_threshold.
  EXPECT_GE(broke_after, tight_failover().down_threshold);
}

TEST(Failover, LiveLeaderTrafficKeepsTheNodeHealthy) {
  const std::string leader_dir = fresh_dir("failover_live_leader");
  ReplicaServerConfig replica_config;
  replica_config.dir = fresh_dir("failover_live_replica");
  ReplicaServer replica(replica_config);

  GatewayConfig config = leader_config(leader_dir);
  config.replication.emplace();
  config.replication->port = replica.port();
  config.replication->heartbeat_interval = std::chrono::milliseconds(10);
  auto gateway =
      std::make_unique<AdmissionGateway>(config, threshold_factory());

  // Read while the monitor runs, so the count must be atomic: nothing
  // orders the callback's write after this thread's reads.
  std::atomic<int> downs{0};
  FailoverDriver driver(replica, tight_failover(), [&] { ++downs; });
  driver.start();
  // Heartbeats every 10ms against a 50ms stall threshold: the node must
  // stay Healthy the whole window.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(driver.health(), Health::kHealthy);
  EXPECT_EQ(downs.load(), 0);

  // Kill the leader: destruction stops the heartbeats and closes the
  // session, so the follower's silence must break the circuit.
  (void)gateway->finish();
  gateway.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!driver.circuit_broken() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  driver.stop();
  EXPECT_TRUE(driver.circuit_broken());
  EXPECT_EQ(downs.load(), 1);
}

// ---------- promotion ----------

TEST(Failover, PromotedReplicaServesTheLeadersCommitments) {
  const std::string leader_dir = fresh_dir("promote_leader");
  const std::string replica_dir = fresh_dir("promote_replica");
  ReplicaServerConfig replica_config;
  replica_config.dir = replica_dir;
  ReplicaServer replica(replica_config);

  GatewayConfig config = leader_config(leader_dir);
  config.replication.emplace();
  config.replication->port = replica.port();
  std::uint64_t leader_accepted = 0;
  {
    AdmissionGateway gateway(config, threshold_factory());
    const GatewayResult result = run_leader(gateway, 100);
    ASSERT_TRUE(result.clean());
    leader_accepted = result.merged.accepted;
  }
  replica.stop();

  GatewayConfig promoted_config = leader_config(replica_dir);
  PromotionResult promoted =
      promote_replica(promoted_config, threshold_factory());
  ASSERT_TRUE(promoted.ok) << promoted.error;
  ASSERT_NE(promoted.gateway, nullptr);
  EXPECT_EQ(promoted.records_recovered, leader_accepted);

  // The promoted node keeps serving: new jobs land on top of the replayed
  // commitments.
  const Outcome outcome =
      promoted.gateway->submit(make_job(100000, 0.0, 1.0, 1e9));
  EXPECT_EQ(outcome, Outcome::kEnqueued);
  const GatewayResult result = promoted.gateway->finish();
  EXPECT_TRUE(result.clean());
  EXPECT_GE(result.merged.accepted, 1u);
}

TEST(Failover, PromotionFailsCleanlyOnMissingOrCorruptLogs) {
  GatewayConfig no_dir;
  no_dir.shards = 1;
  PromotionResult none = promote_replica(no_dir, threshold_factory());
  EXPECT_FALSE(none.ok);
  EXPECT_FALSE(none.error.empty());

  const std::string dir = fresh_dir("promote_corrupt");
  std::ofstream out(dir + "/shard-0.wal", std::ios::binary);
  out << "this is not a commit log";
  out.close();
  GatewayConfig config = leader_config(dir);
  PromotionResult bad = promote_replica(config, threshold_factory());
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
}

}  // namespace
}  // namespace slacksched::repl
