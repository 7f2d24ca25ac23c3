#include "replication/repl_protocol.hpp"

#include <cstring>

#include "common/wire.hpp"
#include "service/commit_log.hpp"

namespace slacksched::repl {

namespace {

using wire::crc32_ieee;
using wire::get;
using wire::put;

/// Writes the header of the frame at `frame`, whose `len`-byte payload
/// already follows it; the CRC covers that payload.
void write_header(char* frame, ReplFrameType type, std::uint16_t shard,
                  std::size_t len) {
  const auto store = [frame](std::size_t offset, auto value) {
    std::memcpy(frame + offset, &value, sizeof(value));
  };
  store(0, kReplProtocolVersion);
  store(1, static_cast<std::uint8_t>(type));
  store(2, shard);
  store(4, static_cast<std::uint32_t>(len));
  store(8, crc32_ieee(frame + kReplHeaderSize, len));
}

/// Opens a frame: reserves its header and returns the offset where the
/// payload begins.
std::size_t begin_frame(std::vector<char>& out) {
  out.resize(out.size() + kReplHeaderSize);
  return out.size();
}

/// Closes the frame opened at `payload_start`: writes its header.
void end_frame(std::vector<char>& out, std::size_t payload_start,
               ReplFrameType type, std::uint16_t shard) {
  write_header(out.data() + payload_start - kReplHeaderSize, type, shard,
               out.size() - payload_start);
}

/// Validates a fixed-size payload: at least `need` bytes (longer is legal
/// — a newer peer may have appended fields we do not read).
bool check_size(const ReplFrame& frame, std::size_t need, const char* what,
                std::string* error) {
  if (frame.payload.size() >= need) return true;
  if (error != nullptr) {
    *error = std::string(what) + " payload too short: " +
             std::to_string(frame.payload.size()) + " < " +
             std::to_string(need) + " bytes";
  }
  return false;
}

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
    case ReplAckMode::kAsync:
      return "async";
    case ReplAckMode::kAckOnBatch:
      return "ack-on-batch";
    case ReplAckMode::kAckOnCommit:
      return "ack-on-commit";
  }
  return "unknown";
}

void encode_hello(std::vector<char>& out, std::uint16_t shard,
                  const HelloMsg& msg) {
  const std::size_t start = begin_frame(out);
  put<std::uint32_t>(out, msg.machines);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(msg.ack_mode));
  put<std::uint64_t>(out, msg.leader_records);
  end_frame(out, start, ReplFrameType::kHello, shard);
}

void encode_welcome(std::vector<char>& out, std::uint16_t shard,
                    std::uint64_t follower_records) {
  const std::size_t start = begin_frame(out);
  put<std::uint64_t>(out, follower_records);
  end_frame(out, start, ReplFrameType::kWelcome, shard);
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
  write_header(frame, ReplFrameType::kAppend, shard,
               kAppendPrefixBytes - kReplHeaderSize +
                   static_cast<std::size_t>(count) * kWalRecordBytes);
}

void encode_ack(std::vector<char>& out, std::uint16_t shard,
                std::uint64_t watermark) {
  const std::size_t start = begin_frame(out);
  put<std::uint64_t>(out, watermark);
  end_frame(out, start, ReplFrameType::kAck, shard);
}

void encode_heartbeat(std::vector<char>& out, std::uint16_t shard,
                      std::uint64_t leader_records) {
  const std::size_t start = begin_frame(out);
  put<std::uint64_t>(out, leader_records);
  end_frame(out, start, ReplFrameType::kHeartbeat, shard);
}

void encode_heartbeat_ack(std::vector<char>& out, std::uint16_t shard,
                          std::uint64_t follower_records) {
  const std::size_t start = begin_frame(out);
  put<std::uint64_t>(out, follower_records);
  end_frame(out, start, ReplFrameType::kHeartbeatAck, shard);
}

void encode_nack(std::vector<char>& out, std::uint16_t shard,
                 NackReason reason, std::uint64_t detail,
                 std::string_view message) {
  const std::size_t start = begin_frame(out);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(reason));
  put<std::uint64_t>(out, detail);
  out.insert(out.end(), message.begin(), message.end());
  end_frame(out, start, ReplFrameType::kNack, shard);
}

bool parse_hello(const ReplFrame& frame, HelloMsg& out, std::string* error) {
  if (!check_size(frame, 13, "HELLO", error)) return false;
  const char* cursor = frame.payload.data();
  out.machines = get<std::uint32_t>(&cursor);
  const std::uint8_t mode = get<std::uint8_t>(&cursor);
  if (mode > static_cast<std::uint8_t>(ReplAckMode::kAckOnCommit)) {
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
  if (!check_size(frame, 8, "watermark frame", error)) return false;
  const char* cursor = frame.payload.data();
  out = get<std::uint64_t>(&cursor);
  return true;
}

bool parse_append(const ReplFrame& frame, std::uint64_t& base_seq,
                  std::uint32_t& count, const char** records,
                  std::string* error) {
  if (!check_size(frame, 12, "APPEND", error)) return false;
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
  if (!check_size(frame, 9, "NACK", error)) return false;
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

void ReplFrameDecoder::feed(const char* data, std::size_t n) {
  if (!error_.empty()) return;  // sticky: the stream is already lost
  // Compact the consumed prefix before growing; amortized O(1) per byte.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ >= 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

ReplFrameDecoder::Status ReplFrameDecoder::next(ReplFrame& out) {
  if (!error_.empty()) return Status::kError;
  if (buffered() < kReplHeaderSize) return Status::kNeedMore;
  const char* cursor = buffer_.data() + pos_;
  const std::uint8_t version = get<std::uint8_t>(&cursor);
  const std::uint8_t type = get<std::uint8_t>(&cursor);
  const std::uint16_t shard = get<std::uint16_t>(&cursor);
  const std::uint32_t len = get<std::uint32_t>(&cursor);
  const std::uint32_t crc = get<std::uint32_t>(&cursor);
  if (version != kReplProtocolVersion) {
    error_ = "unsupported replication protocol version " +
             std::to_string(version) + " (this build speaks " +
             std::to_string(kReplProtocolVersion) + ")";
    return Status::kError;
  }
  if (!repl_frame_type_valid(type)) {
    error_ = "unknown replication frame type " + std::to_string(type);
    return Status::kError;
  }
  if (len > kMaxReplPayload) {
    error_ = "payload length " + std::to_string(len) + " exceeds the " +
             std::to_string(kMaxReplPayload) + "-byte cap";
    return Status::kError;
  }
  if (buffered() < kReplHeaderSize + len) return Status::kNeedMore;
  if (crc32_ieee(cursor, len) != crc) {
    error_ = "payload checksum mismatch on replication frame type " +
             std::to_string(type);
    return Status::kError;
  }
  out.type = static_cast<ReplFrameType>(type);
  out.shard = shard;
  out.payload.assign(cursor, cursor + len);
  pos_ += kReplHeaderSize + len;
  return Status::kFrame;
}

}  // namespace slacksched::repl
