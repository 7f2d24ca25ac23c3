/// \file
/// The commit-log replication wire protocol: a versioned, length-prefixed,
/// CRC-framed binary format spoken between a leader's per-shard
/// ShardReplicator and a follower's ReplicaServer. Its frames use the
/// shared 12-byte header and the one frame codec of common/wire.hpp, but
/// it is its own protocol on its own port — the frozen client admission
/// protocol (net/protocol.hpp, docs/net.md) is untouched and versions
/// independently. What is the replication protocol's own:
///
///   version      kReplProtocolVersion (2); mismatch rejects the frame
///   type         ReplFrameType (1..7); unknown values reject the frame
///   u16 word     the shard index the frame belongs to
///   payload cap  kMaxReplPayload (1 MiB); bigger frames reject loudly
///
/// Conversation shape (one TCP connection per shard, leader connects):
///
///   leader:   HELLO{machines, ack_mode, leader_records}
///   follower: WELCOME{follower_records}        (or NACK{stale-leader})
///   leader:   APPEND{base_seq, count, raw WAL records}*   (catch-up +
///             live stream; base_seq = follower's expected record count)
///   follower: ACK{watermark}                   (after each APPEND is
///             persisted + fsynced; watermark = records now durable)
///   leader:   HEARTBEAT{leader_records}        (idle liveness)
///   follower: HEARTBEAT_ACK{follower_records}  (replication watermark)
///   follower: NACK{reason, detail}             (fail-safe refusal: the
///             session ends, nothing was persisted from the bad frame)
///
/// APPEND payloads carry raw commit-log records byte-for-byte (the 56-byte
/// kWalRecordBytes frame of service/commit_log.hpp, each independently
/// CRC-framed), so a follower's log is verbatim-identical to the leader's
/// and replays through the exact same recover_commit_log path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/wire.hpp"

namespace slacksched::repl {

/// Replication protocol version this build speaks. A new checksum is a
/// new version, as in the admission protocol.
inline constexpr std::uint8_t kReplProtocolVersion = 2;

/// Size of the fixed frame header in bytes (frozen across versions).
inline constexpr std::size_t kReplHeaderSize = wire::kFrameHeaderBytes;

/// Largest accepted payload (caps APPEND to ~18.7k records per frame).
inline constexpr std::uint32_t kMaxReplPayload = 1u << 20;

/// Bytes of an APPEND frame ahead of its records: the header, then the
/// u64 base_seq and u32 count of the payload.
inline constexpr std::size_t kAppendPrefixBytes = kReplHeaderSize + 12;

/// Frame type tags. Values are frozen; new types append.
enum class ReplFrameType : std::uint8_t {
  kHello = 1,         ///< leader -> follower: session open
  kWelcome = 2,       ///< follower -> leader: session accepted + watermark
  kAppend = 3,        ///< leader -> follower: raw WAL records
  kAck = 4,           ///< follower -> leader: records durable up to mark
  kHeartbeat = 5,     ///< leader -> follower: liveness probe
  kHeartbeatAck = 6,  ///< follower -> leader: probe echo + watermark
  kNack = 7,          ///< follower -> leader: refusal, then close
};

/// The replication protocol as the shared frame codec sees it.
inline constexpr wire::FrameSpec kReplicationFrames{
    kReplProtocolVersion, static_cast<std::uint8_t>(ReplFrameType::kNack),
    kMaxReplPayload, "replication"};

/// One decoded frame; its header word is the shard index.
using ReplFrame = wire::Frame<ReplFrameType>;

/// The shared incremental decoder (common/wire.hpp) bound to this protocol.
using ReplFrameDecoder =
    wire::ProtocolDecoder<ReplFrameType, kReplicationFrames>;

/// Why a follower refused (NACK payload `reason`). Values are frozen.
enum class NackReason : std::uint8_t {
  kStaleLeader = 1,    ///< follower holds more records than the leader
  kSequenceGap = 2,    ///< APPEND base_seq != follower's record count
  kCorruptRecord = 3,  ///< a shipped record failed its CRC frame check
  kBadState = 4,       ///< follower-side log unusable (I/O, bad header)
};

[[nodiscard]] std::string to_string(NackReason reason);

/// When the leader blocks on follower acknowledgement: at each shard group
/// boundary (one sync per group of batches), before the group's decisions
/// are published, so every accept a client is told is on the follower.
/// Wire value 1 is frozen (HELLO payload); the retired values 0 (async)
/// and 2 (per-record) are refused.
enum class ReplAckMode : std::uint8_t {
  kAckOnBatch = 1,
};

[[nodiscard]] std::string to_string(ReplAckMode mode);

/// Thrown by both sides on connection failures, protocol violations,
/// follower NACKs and ack timeouts.
class ReplError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// HELLO payload: u32 machines, u8 ack_mode, u64 leader_records. 13 bytes.
struct HelloMsg {
  std::uint32_t machines = 0;
  ReplAckMode ack_mode = ReplAckMode::kAckOnBatch;
  std::uint64_t leader_records = 0;
};

/// NACK payload: u8 reason, u64 detail, then a UTF-8 message.
struct NackMsg {
  NackReason reason = NackReason::kBadState;
  std::uint64_t detail = 0;
  std::string message;
};

// --- encoders: append one complete frame (header + payload) to `out` ---

void encode_hello(std::vector<char>& out, std::uint16_t shard,
                  const HelloMsg& msg);
void encode_welcome(std::vector<char>& out, std::uint16_t shard,
                    std::uint64_t follower_records);
/// `records` must be count * kWalRecordBytes raw commit-log record bytes.
void encode_append(std::vector<char>& out, std::uint16_t shard,
                   std::uint64_t base_seq, std::uint32_t count,
                   const char* records, std::size_t record_bytes);
/// Completes an APPEND frame in place: `frame` holds kAppendPrefixBytes of
/// space followed by `count` records; fills in the header (length, CRC),
/// base_seq and count. The bytes equal encode_append's for the same input.
void seal_append(char* frame, std::uint16_t shard, std::uint64_t base_seq,
                 std::uint32_t count);
void encode_ack(std::vector<char>& out, std::uint16_t shard,
                std::uint64_t watermark);
void encode_heartbeat(std::vector<char>& out, std::uint16_t shard,
                      std::uint64_t leader_records);
void encode_heartbeat_ack(std::vector<char>& out, std::uint16_t shard,
                          std::uint64_t follower_records);
void encode_nack(std::vector<char>& out, std::uint16_t shard,
                 NackReason reason, std::uint64_t detail,
                 std::string_view message);

// --- payload parsers: false (with *error set) on malformed payloads ---

[[nodiscard]] bool parse_hello(const ReplFrame& frame, HelloMsg& out,
                               std::string* error);
/// WELCOME / ACK / HEARTBEAT / HEARTBEAT_ACK all carry one u64.
[[nodiscard]] bool parse_watermark(const ReplFrame& frame,
                                   std::uint64_t& out, std::string* error);
/// On success `records` points into frame.payload (count * kWalRecordBytes).
[[nodiscard]] bool parse_append(const ReplFrame& frame,
                                std::uint64_t& base_seq, std::uint32_t& count,
                                const char** records, std::string* error);
[[nodiscard]] bool parse_nack(const ReplFrame& frame, NackMsg& out,
                              std::string* error);

}  // namespace slacksched::repl
