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

constexpr std::size_t kLaneBytes = detail::kCrc32cLaneBytes;

/// A linear map on the raw (uninverted) 32-bit CRC register, as the images
/// of its 32 unit vectors.
using CrcOperator = std::array<std::uint32_t, 32>;

constexpr std::uint32_t apply(const CrcOperator& op, std::uint32_t v) {
  std::uint32_t out = 0;
  for (std::size_t bit = 0; bit < 32; ++bit) {
    if ((v >> bit) & 1u) out ^= op[bit];
  }
  return out;
}

using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

/// The register after `bytes` zero bytes (a power of two), by byte: the
/// shift is the XOR of table[k][byte k of the register]. CRC is linear, so
/// the register after A || B is shift(register after A) ^ (register of B
/// started from 0): this merges lanes computed side by side.
constexpr ShiftTable make_shift_table(std::size_t bytes) {
  CrcOperator op{};  // one zero byte
  for (std::size_t bit = 0; bit < 32; ++bit) {
    const std::uint32_t r = std::uint32_t{1} << bit;
    op[bit] = kCrcTables[0][r & 0xFFu] ^ (r >> 8);
  }
  for (std::size_t n = 1; n < bytes; n *= 2) {
    CrcOperator squared{};
    for (std::size_t bit = 0; bit < 32; ++bit) {
      squared[bit] = apply(op, op[bit]);
    }
    op = squared;
  }
  ShiftTable table{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) table[k][b] = apply(op, b << 8 * k);
  }
  return table;
}

constexpr ShiftTable kLaneShift = make_shift_table(kLaneBytes);

/// The register after kLaneBytes zero bytes.
std::uint32_t shift_lane(std::uint32_t crc) {
  const auto& t = kLaneShift;
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
}

/// Little-endian u32 from 4 bytes, whatever the host order (compilers fold
/// this into one load on little-endian hosts).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// One record's frame against the CRC of its payload.
bool record_intact(const char* record, std::size_t payload,
                   std::uint32_t crc) {
  std::uint32_t len = 0;
  std::uint32_t want = 0;
  std::memcpy(&len, record, sizeof(len));
  std::memcpy(&want, record + 4, sizeof(want));
  return len == payload && crc == want;
}

/// The implementation the CPU chose: crc32c and intact_records.
struct Crc32cImpl {
  std::uint32_t (*crc)(const void*, std::size_t);
  std::size_t (*records)(const char*, std::size_t, std::size_t);
};

#ifdef SLACKSCHED_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint64_t crc32_word(
    std::uint64_t crc, const unsigned char* bytes) {
  std::uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

/// crc32c on the SSE4.2 `crc32` instruction. One `crc32` chain waits
/// three cycles per 8 bytes, so whole blocks run three independent lanes
/// of kLaneBytes each and merge them with kLaneShift; the rest goes 8
/// bytes per step, then one 4-byte and up to three 1-byte steps. x86 is
/// little-endian, so a memcpy load is the wire's byte order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 3 * kLaneBytes; n -= 3 * kLaneBytes, bytes += 3 * kLaneBytes) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t k = 0; k < kLaneBytes; k += 8) {
      crc = crc32_word(crc, bytes + k);
      crc1 = crc32_word(crc1, bytes + kLaneBytes + k);
      crc2 = crc32_word(crc2, bytes + 2 * kLaneBytes + k);
    }
    crc = shift_lane(static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = shift_lane(static_cast<std::uint32_t>(crc)) ^ crc2;
  }
  for (; n >= 8; n -= 8, bytes += 8) crc = crc32_word(crc, bytes);
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

/// intact_records on SSE4.2: three records' CRC chains side by side, so
/// each `crc32` overlaps the latency of the other two; a run's last one or
/// two records go through crc32c_sse42.
__attribute__((target("sse4.2"))) std::size_t intact_records_sse42(
    const char* records, std::size_t count, std::size_t payload) {
  const std::size_t stride = kRecordFrameBytes + payload;
  std::size_t i = 0;
  for (; i + 3 <= count; i += 3) {
    const auto* p0 = reinterpret_cast<const unsigned char*>(
        records + i * stride + kRecordFrameBytes);
    const unsigned char* p1 = p0 + stride;
    const unsigned char* p2 = p1 + stride;
    std::uint64_t crc0 = 0xFFFFFFFFu;
    std::uint64_t crc1 = 0xFFFFFFFFu;
    std::uint64_t crc2 = 0xFFFFFFFFu;
    std::size_t k = 0;
    for (; k + 8 <= payload; k += 8) {
      crc0 = crc32_word(crc0, p0 + k);
      crc1 = crc32_word(crc1, p1 + k);
      crc2 = crc32_word(crc2, p2 + k);
    }
    auto c0 = static_cast<std::uint32_t>(crc0);
    auto c1 = static_cast<std::uint32_t>(crc1);
    auto c2 = static_cast<std::uint32_t>(crc2);
    for (; k < payload; ++k) {
      c0 = _mm_crc32_u8(c0, p0[k]);
      c1 = _mm_crc32_u8(c1, p1[k]);
      c2 = _mm_crc32_u8(c2, p2[k]);
    }
    const char* r0 = records + i * stride;
    if (!record_intact(r0, payload, c0 ^ 0xFFFFFFFFu)) return i;
    if (!record_intact(r0 + stride, payload, c1 ^ 0xFFFFFFFFu)) return i + 1;
    if (!record_intact(r0 + 2 * stride, payload, c2 ^ 0xFFFFFFFFu)) {
      return i + 2;
    }
  }
  for (; i < count; ++i) {
    const char* r = records + i * stride;
    const std::uint32_t crc = crc32c_sse42(r + kRecordFrameBytes, payload);
    if (!record_intact(r, payload, crc)) return i;
  }
  return count;
}
#endif

Crc32cImpl select_crc32c() {
#ifdef SLACKSCHED_CRC32C_SSE42
  __builtin_cpu_init();  // may run before libgcc's own constructor
  if (__builtin_cpu_supports("sse4.2")) {
    return {crc32c_sse42, intact_records_sse42};
  }
#endif
  return {detail::crc32c_portable, detail::intact_records_portable};
}

/// Chosen on the first call, so a static initializer elsewhere that frames
/// bytes never meets an unchosen implementation.
const Crc32cImpl& crc32c_impl() {
  static const Crc32cImpl impl = select_crc32c();
  return impl;
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

std::size_t detail::intact_records_portable(const char* records,
                                            std::size_t count,
                                            std::size_t payload) {
  const std::size_t stride = kRecordFrameBytes + payload;
  for (std::size_t i = 0; i < count; ++i, records += stride) {
    if (!record_intact(records, payload,
                       crc32c_portable(records + kRecordFrameBytes, payload))) {
      return i;
    }
  }
  return count;
}

std::uint32_t crc32c(const void* data, std::size_t n) {
  return crc32c_impl().crc(data, n);
}

std::size_t intact_records(const char* records, std::size_t count,
                           std::size_t payload) {
  return crc32c_impl().records(records, count, payload);
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
