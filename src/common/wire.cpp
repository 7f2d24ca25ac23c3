#include "common/wire.hpp"

#include <array>

namespace slacksched::wire {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320. tables[0] is
/// the classic byte-at-a-time table; tables[k][b] is the CRC contribution
/// of byte b followed by k zero bytes, so eight table reads fold eight
/// input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
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

}  // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t n) {
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

}  // namespace slacksched::wire
