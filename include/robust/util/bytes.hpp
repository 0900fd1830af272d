// Little-endian byte writers and loads plus FNV-1a, shared by the
// canonical problem encoding and .rbi files (robust/core) and the robustd
// wire frames (robust/net).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace robust::util {

// memcpy keeps the writers alignment-safe; the build targets are
// little-endian (the on-disk .rbi format makes the same assumption).
inline void putBytes(std::vector<std::uint8_t>& out, const void* data,
                     std::size_t n) {
  if (n == 0) {
    return;
  }
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}
inline void putU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  putBytes(out, &v, 2);
}
inline void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  putBytes(out, &v, 4);
}
inline void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  putBytes(out, &v, 8);
}
inline void putF64(std::vector<std::uint8_t>& out, double v) {
  putBytes(out, &v, 8);
}

/// The little-endian T stored at `p` (any alignment).
template <class T>
[[nodiscard]] T loadLE(const void* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// FNV-1a 64-bit over `bytes`; stable across platforms and processes.
[[nodiscard]] inline std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace robust::util
