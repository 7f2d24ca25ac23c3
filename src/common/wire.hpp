// Binary wire/framing helpers shared by every on-the-wire and on-disk
// format in the repo: the commit log's record framing
// (service/commit_log.hpp) and the admission protocol frames
// (net/protocol.hpp). One codec, one checksum — a record that encodes
// here decodes anywhere, and the tests that forge corrupt frames forge
// them through the same path.
//
// Encoding is little-endian, fixed-width, via memcpy (never pointer
// casts): safe under -fsanitize=undefined and on any alignment. Floats
// travel as their IEEE-754 bit patterns, so a round trip is bit-exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace slacksched::wire {

/// IEEE CRC-32 (reflected, poly 0xEDB88320) over `n` bytes — the framing
/// checksum of the commit log, the admission protocol and the replication
/// protocol. Slice-by-8: eight bytes per step, any alignment.
[[nodiscard]] std::uint32_t crc32_ieee(const void* data, std::size_t n);

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

}  // namespace slacksched::wire
