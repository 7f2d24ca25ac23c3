// A commit log in the previous on-disk format, version 3, for the tests
// that check a log in an older format is refused by its header and left
// byte-for-byte untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/wire.hpp"

namespace slacksched {

/// A whole version-3 log: the header (magic "SLKWAL03", u32 version 3,
/// u32 machines), then `records` 56-byte records. Each is a u32 length 48,
/// the CRC-32C of its payload and the payload i64 id | f64 release |
/// f64 proc | f64 deadline | i32 machine | u32 criticality | f64 start.
/// Record i commits a unit job released at 4i to machine i % machines at
/// its release. Every record is intact under version 3's own framing; a
/// version-4 reader that skipped the header check would read the first
/// length field (48, not 44) as a torn tail and truncate the history.
inline std::vector<char> v3_wal(std::uint32_t machines, int records) {
  std::vector<char> bytes = {'S', 'L', 'K', 'W', 'A', 'L', '0', '3'};
  wire::put(bytes, std::uint32_t{3});
  wire::put(bytes, machines);
  constexpr std::size_t kV3PayloadBytes = 48;
  for (int i = 0; i < records; ++i) {
    const std::size_t frame = bytes.size();
    const double release = 4.0 * i;
    wire::put(bytes, static_cast<std::uint32_t>(kV3PayloadBytes));
    wire::put(bytes, std::uint32_t{0});  // crc, patched below
    wire::put(bytes, static_cast<std::int64_t>(i));
    wire::put(bytes, release);
    wire::put(bytes, 1.0);
    wire::put(bytes, release + 4.0);
    wire::put(bytes, static_cast<std::int32_t>(static_cast<std::uint32_t>(i) %
                                               machines));
    wire::put(bytes, std::uint32_t{0});  // criticality: background
    wire::put(bytes, release);
    wire::patch(bytes, frame + 4,
                wire::crc32c(bytes.data() + frame + 8, kV3PayloadBytes));
  }
  return bytes;
}

}  // namespace slacksched
