#include "replication/repl_protocol.hpp"

#include <cstring>

#include "common/wire.hpp"
#include "service/commit_log.hpp"

namespace slacksched::repl {

namespace {

using wire::get;
using wire::put;

}  // namespace

std::string to_string(NackReason reason) {
  switch (reason) {
    case NackReason::kStaleLeader:
      return "stale-leader";
    case NackReason::kSequenceGap:
      return "sequence-gap";
    case NackReason::kCorruptRecord:
      return "corrupt-record";
    case NackReason::kBadState:
      return "bad-state";
  }
  return "unknown";
}

std::string to_string(ReplAckMode mode) {
  switch (mode) {
    case ReplAckMode::kAckOnBatch:
      return "ack-on-batch";
  }
  return "unknown";
}

void encode_hello(std::vector<char>& out, std::uint16_t shard,
                  const HelloMsg& msg) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint32_t>(out, msg.machines);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(msg.ack_mode));
  put<std::uint64_t>(out, msg.leader_records);
  wire::end_frame(out, start, kReplicationFrames, ReplFrameType::kHello, shard);
}

void encode_welcome(std::vector<char>& out, std::uint16_t shard,
                    std::uint64_t follower_records) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, follower_records);
  wire::end_frame(out, start, kReplicationFrames, ReplFrameType::kWelcome,
                  shard);
}

void encode_append(std::vector<char>& out, std::uint16_t shard,
                   std::uint64_t base_seq, std::uint32_t count,
                   const char* records, std::size_t record_bytes) {
  const std::size_t start = out.size();
  out.resize(start + kAppendPrefixBytes);
  out.insert(out.end(), records, records + record_bytes);
  seal_append(out.data() + start, shard, base_seq, count);
}

void seal_append(char* frame, std::uint16_t shard, std::uint64_t base_seq,
                 std::uint32_t count) {
  std::memcpy(frame + kReplHeaderSize, &base_seq, sizeof(base_seq));
  std::memcpy(frame + kReplHeaderSize + 8, &count, sizeof(count));
  wire::seal(frame, kReplicationFrames,
             static_cast<std::uint8_t>(ReplFrameType::kAppend), shard,
             kAppendPrefixBytes - kReplHeaderSize +
                 static_cast<std::size_t>(count) * kWalRecordBytes);
}

void encode_ack(std::vector<char>& out, std::uint16_t shard,
                std::uint64_t watermark) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, watermark);
  wire::end_frame(out, start, kReplicationFrames, ReplFrameType::kAck, shard);
}

void encode_heartbeat(std::vector<char>& out, std::uint16_t shard,
                      std::uint64_t leader_records) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, leader_records);
  wire::end_frame(out, start, kReplicationFrames, ReplFrameType::kHeartbeat,
                  shard);
}

void encode_heartbeat_ack(std::vector<char>& out, std::uint16_t shard,
                          std::uint64_t follower_records) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, follower_records);
  wire::end_frame(out, start, kReplicationFrames, ReplFrameType::kHeartbeatAck,
                  shard);
}

void encode_nack(std::vector<char>& out, std::uint16_t shard,
                 NackReason reason, std::uint64_t detail,
                 std::string_view message) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(reason));
  put<std::uint64_t>(out, detail);
  out.insert(out.end(), message.begin(), message.end());
  wire::end_frame(out, start, kReplicationFrames, ReplFrameType::kNack, shard);
}

bool parse_hello(const ReplFrame& frame, HelloMsg& out, std::string* error) {
  if (!wire::check_size(frame.payload.size(), 13, "HELLO", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  out.machines = get<std::uint32_t>(&cursor);
  const std::uint8_t mode = get<std::uint8_t>(&cursor);
  if (mode != static_cast<std::uint8_t>(ReplAckMode::kAckOnBatch)) {
    if (error != nullptr) {
      *error = "HELLO carries unknown ack mode " + std::to_string(mode);
    }
    return false;
  }
  out.ack_mode = static_cast<ReplAckMode>(mode);
  out.leader_records = get<std::uint64_t>(&cursor);
  return true;
}

bool parse_watermark(const ReplFrame& frame, std::uint64_t& out,
                     std::string* error) {
  if (!wire::check_size(frame.payload.size(), 8, "watermark frame", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  out = get<std::uint64_t>(&cursor);
  return true;
}

bool parse_append(const ReplFrame& frame, std::uint64_t& base_seq,
                  std::uint32_t& count, const char** records,
                  std::string* error) {
  if (!wire::check_size(frame.payload.size(), 12, "APPEND", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  base_seq = get<std::uint64_t>(&cursor);
  count = get<std::uint32_t>(&cursor);
  const std::size_t body = frame.payload.size() - 12;
  if (body != static_cast<std::size_t>(count) * kWalRecordBytes) {
    if (error != nullptr) {
      *error = "APPEND declares " + std::to_string(count) + " records but " +
               "carries " + std::to_string(body) + " body bytes";
    }
    return false;
  }
  *records = cursor;
  return true;
}

bool parse_nack(const ReplFrame& frame, NackMsg& out, std::string* error) {
  if (!wire::check_size(frame.payload.size(), 9, "NACK", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  const std::uint8_t reason = get<std::uint8_t>(&cursor);
  if (reason < 1 || reason > static_cast<std::uint8_t>(NackReason::kBadState)) {
    if (error != nullptr) {
      *error = "NACK carries unknown reason code " + std::to_string(reason);
    }
    return false;
  }
  out.reason = static_cast<NackReason>(reason);
  out.detail = get<std::uint64_t>(&cursor);
  out.message.assign(frame.payload.begin() + 9, frame.payload.end());
  return true;
}

}  // namespace slacksched::repl
