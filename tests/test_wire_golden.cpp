// Golden bytes of every framed format the project puts on a wire or a disk:
// one fixed input per admission frame type (REJECT twice: retry-after and
// an invalid job), per replication frame type
// (APPEND both through encode_append and sealed in place by seal_append),
// and one WAL record, each compared with the hex it encoded to before the
// three formats shared one frame codec. Since the checksum became CRC-32C
// only each frame's version byte (0) and CRC (8..11) and the record's CRC
// (4..7) differ from those bytes. Since WAL version 4 the record has no
// criticality field, so it and the APPEND frame carrying it are 4 bytes
// shorter, with new lengths and CRCs. A round trip still passes when the
// encoder and the decoder change together; these bytes do not move unless
// the format does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "replication/repl_protocol.hpp"
#include "service/commit_log.hpp"

namespace slacksched {
namespace {

Job make_job(JobId id, double release, double proc, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.proc = proc;
  job.deadline = deadline;
  return job;
}

std::string hex(const std::vector<char>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0x0F];
  }
  return out;
}

/// The one WAL record every golden below that carries records uses.
std::vector<char> golden_record() {
  std::vector<char> out;
  encode_wal_record(make_job(7, 0.5, 2.0, 9.0), 1, 3.5, out);
  return out;
}

constexpr const char* kRecordHex =
    "2c0000002ba6042c0700000000000000000000000000e03f"
    "00000000000000400000000000002240010000000000000000000c40";

TEST(WireGolden, WalRecord) {
  EXPECT_EQ(hex(golden_record()), kRecordHex);
}

TEST(WireGolden, AdmissionFrames) {
  using namespace net;
  std::vector<char> bytes;

  encode_submit(bytes, SubmitMsg{0x0102030405060708ull,
                                 make_job(42, 1.5, 2.25, 10.0)});
  EXPECT_EQ(hex(bytes),
            "02010000280000002014488c08070605040302012a00000000000000"
            "000000000000f83f00000000000002400000000000002440")
      << "SUBMIT";

  bytes.clear();
  const std::vector<Job> jobs = {make_job(1, 0.0, 1.0, 4.0),
                                 make_job(2, 0.5, 2.0, 8.0)};
  encode_submit_batch(bytes, 1000, jobs);
  EXPECT_EQ(hex(bytes),
            "020200004c000000902edce7e80300000000000002000000"
            "01000000000000000000000000000000000000000000f03f"
            "0000000000001040020000000000000000000000"
            "0000e03f00000000000000400000000000002040")
      << "SUBMIT_BATCH";

  bytes.clear();
  encode_decision(bytes, DecisionMsg{9, 1234, Outcome::kAccepted, 3, 17.75});
  EXPECT_EQ(hex(bytes),
            "020300001d0000000effabe40900000000000000d204000000000000"
            "01030000000000000000c03140")
      << "DECISION";

  bytes.clear();
  encode_reject(bytes,
                RejectMsg{5, -1, Outcome::kRejectedRetryAfter, 250});
  EXPECT_EQ(hex(bytes),
            "02040000150000009a85f7a60500000000000000ffffffffffffffff"
            "05fa000000")
      << "REJECT";

  bytes.clear();
  encode_reject(bytes, RejectMsg{6, 42, Outcome::kRejectedInvalid, 0});
  EXPECT_EQ(hex(bytes),
            "0204000015000000fb98f7c106000000000000002a00000000000000"
            "0800000000")
      << "REJECT invalid";

  bytes.clear();
  encode_drain(bytes);
  EXPECT_EQ(hex(bytes), "020500000000000000000000") << "DRAIN";

  bytes.clear();
  encode_drained(bytes, DrainedMsg{1000, 900, 100, 1234.5, 99.25, 810.0, 1});
  EXPECT_EQ(hex(bytes),
            "02060000310000005f9866f3e8030000000000008403000000000000"
            "640000000000000000000000004a93400000000000d05840"
            "000000000050894001")
      << "DRAINED";

  bytes.clear();
  encode_ping(bytes, 0x1122334455667788ull);
  EXPECT_EQ(hex(bytes), "0207000008000000165159af8877665544332211")
      << "PING";

  bytes.clear();
  encode_pong(bytes, 77);
  EXPECT_EQ(hex(bytes), "0208000008000000288232bc4d00000000000000")
      << "PONG";

  bytes.clear();
  encode_error(bytes, "bad frame");
  EXPECT_EQ(hex(bytes), "0209000009000000ff3e8c55626164206672616d65")
      << "ERROR";
}

TEST(WireGolden, ReplicationFrames) {
  using namespace repl;
  std::vector<char> bytes;

  encode_hello(bytes, 3,
               HelloMsg{8, ReplAckMode::kAckOnBatch, 12345});
  EXPECT_EQ(hex(bytes),
            "020103000d000000beaa69e808000000013930000000000000")
      << "HELLO";

  bytes.clear();
  encode_welcome(bytes, 1, 0xDEADBEEFCAFEull);
  EXPECT_EQ(hex(bytes), "02020100080000003d40ca15fecaefbeadde0000")
      << "WELCOME";

  // APPEND: shard 2, base_seq 40, one record.
  const std::vector<char> record = golden_record();
  const std::string append_hex =
      "02030200400000004c952987280000000000000001000000" +
      std::string(kRecordHex);
  bytes.clear();
  encode_append(bytes, 2, 40, 1, record.data(), record.size());
  EXPECT_EQ(hex(bytes), append_hex) << "APPEND via encode_append";

  std::vector<char> sealed(kAppendPrefixBytes);
  sealed.insert(sealed.end(), record.begin(), record.end());
  seal_append(sealed.data(), 2, 40, 1);
  EXPECT_EQ(hex(sealed), append_hex) << "APPEND via seal_append";

  bytes.clear();
  encode_ack(bytes, 1, 77);
  EXPECT_EQ(hex(bytes), "0204010008000000288232bc4d00000000000000")
      << "ACK";

  bytes.clear();
  encode_heartbeat(bytes, 0, 5);
  EXPECT_EQ(hex(bytes), "0205000008000000c04d09e40500000000000000")
      << "HEARTBEAT";

  bytes.clear();
  encode_heartbeat_ack(bytes, 0xFFFF, 6);
  EXPECT_EQ(hex(bytes), "0206ffff08000000a9ca4d3f0600000000000000")
      << "HEARTBEAT_ACK";

  bytes.clear();
  encode_nack(bytes, 0, NackReason::kSequenceGap, 17, "expected base 17");
  EXPECT_EQ(hex(bytes),
            "0207000019000000287e6905021100000000000000"
            "65787065637465642062617365203137")
      << "NACK";
}

}  // namespace
}  // namespace slacksched
