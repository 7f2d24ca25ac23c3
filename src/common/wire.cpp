#include "common/wire.hpp"

#include <array>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SLACKSCHED_CRC32C_SSE42 1
#endif

namespace slacksched::wire {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected polynomial 0x82F63B78. tables[0] is
/// the classic byte-at-a-time table; tables[k][b] is the CRC contribution
/// of byte b followed by k zero bytes, so eight table reads fold eight
/// input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian u32 from 4 bytes, whatever the host order (compilers fold
/// this into one load on little-endian hosts).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t);

#ifdef SLACKSCHED_CRC32C_SSE42
/// crc32c on the SSE4.2 `crc32` instruction: 8 bytes per step, then the
/// tail in one 4-byte and up to three 1-byte steps. x86 is little-endian,
/// so a memcpy load is the wire's byte order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  if (n >= 4) {
    std::uint32_t word;
    std::memcpy(&word, bytes, sizeof(word));
    crc32 = _mm_crc32_u32(crc32, word);
    n -= 4;
    bytes += 4;
  }
  for (; n > 0; --n, ++bytes) crc32 = _mm_crc32_u8(crc32, *bytes);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

Crc32cFn select_crc32c() {
#ifdef SLACKSCHED_CRC32C_SSE42
  __builtin_cpu_init();  // may run before libgcc's own constructor
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_portable;
}

}  // namespace

std::uint32_t detail::crc32c_portable(const void* data, std::size_t n) {
  const auto& t = kCrcTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    const std::uint32_t lo = load_le32(bytes) ^ crc;
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(const void* data, std::size_t n) {
  // Chosen on the first call, so a static initializer elsewhere that
  // frames bytes never meets an unchosen implementation.
  static const Crc32cFn impl = select_crc32c();
  return impl(data, n);
}

void seal(char* frame, const FrameSpec& spec, std::uint8_t type,
          std::uint16_t word, std::size_t len) {
  const auto store = [frame](std::size_t offset, auto value) {
    std::memcpy(frame + offset, &value, sizeof(value));
  };
  store(0, spec.version);
  store(1, type);
  store(2, word);
  store(4, static_cast<std::uint32_t>(len));
  store(8, crc32c(frame + kFrameHeaderBytes, len));
}

bool check_size(std::size_t have, std::size_t need, const char* what,
                std::string* error) {
  if (have >= need) return true;
  if (error != nullptr) {
    *error = std::string(what) + " payload too short: " +
             std::to_string(have) + " < " + std::to_string(need) + " bytes";
  }
  return false;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (!error_.empty()) return;  // sticky: the stream is already lost
  // Compact the consumed prefix before growing; amortized O(1) per byte.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ >= 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

FrameDecoder::Status FrameDecoder::next(std::uint8_t& type,
                                        std::uint16_t& word,
                                        std::vector<char>& payload) {
  if (!error_.empty()) return Status::kError;
  if (buffered() < kFrameHeaderBytes) return Status::kNeedMore;
  const char* cursor = buffer_.data() + pos_;
  const auto version = get<std::uint8_t>(&cursor);
  const auto raw_type = get<std::uint8_t>(&cursor);
  const auto raw_word = get<std::uint16_t>(&cursor);
  const auto len = get<std::uint32_t>(&cursor);
  const auto crc = get<std::uint32_t>(&cursor);
  const auto fail = [this](std::string why) {
    error_ = std::move(why);
    return Status::kError;
  };
  const char* name = spec_->name;
  if (version != spec_->version) {
    return fail(std::string("unsupported ") + name + " protocol version " +
                std::to_string(version) + " (this build speaks " +
                std::to_string(spec_->version) + ")");
  }
  if (raw_type < 1 || raw_type > spec_->max_type) {
    return fail(std::string("unknown ") + name + " frame type " +
                std::to_string(raw_type));
  }
  // The cap is checked from the header alone: a hostile length field never
  // makes the decoder wait for (or buffer) a huge payload.
  if (len > spec_->max_payload) {
    return fail(std::string(name) + " payload length " + std::to_string(len) +
                " exceeds the " + std::to_string(spec_->max_payload) +
                "-byte cap");
  }
  if (buffered() < kFrameHeaderBytes + len) return Status::kNeedMore;
  if (crc32c(cursor, len) != crc) {
    return fail(std::string("payload checksum mismatch on ") + name +
                " frame type " + std::to_string(raw_type));
  }
  type = raw_type;
  word = raw_word;
  payload.assign(cursor, cursor + len);
  pos_ += kFrameHeaderBytes + len;
  return Status::kFrame;
}

}  // namespace slacksched::wire
