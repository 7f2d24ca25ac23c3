// Binary wire/framing helpers shared by every on-the-wire and on-disk
// format in the repo. Three formats are CRC-framed, and all three frame
// through this file:
//
//   - the admission protocol (net/protocol.hpp, client <-> server) and
//   - the replication protocol (replication/repl_protocol.hpp, leader <->
//     follower) share one 12-byte frame header. begin_frame/end_frame and
//     the in-place seal() write it; the one incremental FrameDecoder reads
//     it. A protocol is only a FrameSpec: its version byte, its highest
//     frame type, its payload cap and its name.
//   - the commit log (service/commit_log.hpp) frames each fixed-width
//     record with a u32 length and the same CRC (intact_records checks a
//     run of them, for recovery and the replica alike).
//
// Frame header (kFrameHeaderBytes = 12, frozen across protocol versions so
// an old decoder can still *reject* a newer frame cleanly):
//
//   u8  version      FrameSpec::version; a mismatch rejects the frame
//   u8  type         1..FrameSpec::max_type; other values reject the frame
//   u16 word         the protocol's: reserved (0) in admission, the shard
//                    index in replication
//   u32 payload_len  <= FrameSpec::max_payload, checked from the header
//                    alone, before any payload is awaited
//   u32 crc          crc32c of the payload bytes
//   ... payload_len bytes of payload
//
// Encoding is little-endian, fixed-width, via memcpy (never pointer
// casts): safe under -fsanitize=undefined and on any alignment. Floats
// travel as their IEEE-754 bit patterns, so a round trip is bit-exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace slacksched::wire {

/// CRC-32C (Castagnoli: reflected, poly 0x82F63B78) over `n` bytes — the
/// framing checksum of the commit log, the admission protocol and the
/// replication protocol. The CPU chooses the implementation once per
/// process: the SSE4.2 `crc32` instruction, eight bytes per step, on an
/// x86-64 CPU that has it; detail::crc32c_portable everywhere else. Any
/// alignment.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t n);

/// Bytes before each record's payload in a run checked by intact_records:
/// u32 payload length, then u32 crc32c of the payload.
inline constexpr std::size_t kRecordFrameBytes = 8;

/// Checks a run of `count` records laid end to end, each kRecordFrameBytes
/// of frame and then `payload` bytes — the commit log's record framing. A
/// record is intact iff its length field is `payload` and its CRC field is
/// the crc32c of its payload. Returns how many leading records are intact
/// (`count` when all are). One call checks the whole run: the SSE4.2 path
/// checks three records side by side. Any alignment.
[[nodiscard]] std::size_t intact_records(const char* records,
                                         std::size_t count,
                                         std::size_t payload);

namespace detail {
/// Bytes per lane of crc32c's SSE4.2 path: a whole 3 * kCrc32cLaneBytes
/// block runs as three interleaved lanes; shorter input and the rest
/// after the last block run as one.
inline constexpr std::size_t kCrc32cLaneBytes = 512;

/// The table paths of crc32c (slice-by-8: eight table reads fold eight
/// bytes) and intact_records, compiled in on every host. Exposed so tests
/// check them on hosts that never select them.
[[nodiscard]] std::uint32_t crc32c_portable(const void* data, std::size_t n);
[[nodiscard]] std::size_t intact_records_portable(const char* records,
                                                  std::size_t count,
                                                  std::size_t payload);
}  // namespace detail

/// Appends `value`'s little-endian bytes to `out`.
template <typename T>
void put(std::vector<char>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Reads one `T` from `*cursor` and advances it. The caller has already
/// bounds-checked: framing validates payload lengths before field reads.
template <typename T>
[[nodiscard]] T get(const char** cursor) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, *cursor, sizeof(T));
  *cursor += sizeof(T);
  return value;
}

/// Overwrites sizeof(T) bytes at `out[offset]` with `value` — for length
/// or checksum fields filled in after the payload is known.
template <typename T>
void patch(std::vector<char>& out, std::size_t offset, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

/// Size of the frame header every framed protocol shares.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Everything that differs between two framed protocols.
struct FrameSpec {
  std::uint8_t version;       ///< header version byte this build speaks
  std::uint8_t max_type;      ///< valid type bytes are 1..max_type
  std::uint32_t max_payload;  ///< largest accepted payload_len
  const char* name;           ///< protocol name in error text
};

/// Opens a frame in `out`: reserves its header and returns the offset
/// where the payload begins.
inline std::size_t begin_frame(std::vector<char>& out) {
  out.resize(out.size() + kFrameHeaderBytes);
  return out.size();
}

/// Writes the header of the frame at `frame`, whose `len`-byte payload
/// already follows it — the one header writer, also used directly on
/// frames assembled in place.
void seal(char* frame, const FrameSpec& spec, std::uint8_t type,
          std::uint16_t word, std::size_t len);

/// Closes the frame opened at `payload_start`: seals its header. `Type` is
/// the protocol's frame-type enum.
template <typename Type>
void end_frame(std::vector<char>& out, std::size_t payload_start,
               const FrameSpec& spec, Type type, std::uint16_t word = 0) {
  seal(out.data() + payload_start - kFrameHeaderBytes, spec,
       static_cast<std::uint8_t>(type), word, out.size() - payload_start);
}

/// Validates a fixed-size payload: at least `need` bytes (longer is legal
/// — a newer peer may have appended fields we do not read). `what` names
/// the frame in the error text.
[[nodiscard]] bool check_size(std::size_t have, std::size_t need,
                              const char* what, std::string* error);

/// One decoded frame: validated header + raw payload bytes.
template <typename Type>
struct Frame {
  Type type{};
  std::uint16_t word = 0;  ///< the header's protocol-defined u16
  std::vector<char> payload;
};

/// The incremental frame decoder: feed() raw bytes as they arrive, then
/// pull complete frames with next(). A malformed stream (bad version,
/// unknown type, oversized length, CRC mismatch) puts the decoder into a
/// sticky error state — framing is lost for good on a byte stream, so the
/// only safe reaction is to report and close the connection.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     ///< the out-parameters hold the next complete frame
    kNeedMore,  ///< no complete frame buffered; feed() more bytes
    kError,     ///< stream corrupt; see error()
  };

  explicit FrameDecoder(const FrameSpec& spec) : spec_(&spec) {}

  void feed(const char* data, std::size_t n);

  [[nodiscard]] Status next(std::uint8_t& type, std::uint16_t& word,
                            std::vector<char>& payload);

  /// Why the stream was rejected (empty unless next() returned kError).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  const FrameSpec* spec_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix of buffer_
  std::string error_;
};

/// A FrameDecoder bound to one protocol: default-constructible, and yields
/// frames typed by the protocol's frame-type enum.
template <typename Type, const FrameSpec& kSpec>
class ProtocolDecoder : public FrameDecoder {
 public:
  ProtocolDecoder() : FrameDecoder(kSpec) {}

  [[nodiscard]] Status next(Frame<Type>& out) {
    std::uint8_t type = 0;
    const Status status = FrameDecoder::next(type, out.word, out.payload);
    if (status == Status::kFrame) out.type = static_cast<Type>(type);
    return status;
  }
};

}  // namespace slacksched::wire
