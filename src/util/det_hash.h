// Deterministic, implementation-independent hashing (FNV-1a).
//
// std::hash is stdlib-specific: the same key hashes differently across
// libstdc++ / libc++ / MSVC, and even across versions of one library.
// That is fine for in-memory containers, but any hash that is *folded
// into output bytes* -- variant bucketing, sharding keys, sampling
// decisions -- would make those bytes depend on the toolchain and break
// the "output depends only on the seed" contract (docs/performance.md).
//
// This header is the one sanctioned source of output-facing hashes:
// plain FNV-1a over explicitly chosen wire bytes, identical everywhere.
// manrs_analyze (std-hash rule) bans `std::hash<` in src/ outside
// this header and the allowlisted container-hasher specializations.
#pragma once

#include <cstdint>

namespace manrs::util {

inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ull;

/// Fold one byte into an FNV-1a state.
constexpr uint64_t fnv1a_byte(uint64_t h, uint8_t b) {
  return (h ^ b) * kFnv1aPrime;
}

/// Fold a 64-bit value big-endian (most significant byte first), so the
/// result matches hashing the value's wire representation.
constexpr uint64_t fnv1a_u64(uint64_t h, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    h = fnv1a_byte(h, static_cast<uint8_t>(v >> shift));
  }
  return h;
}

/// FNV-1a over a byte range.
constexpr uint64_t fnv1a_bytes(uint64_t h, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) h = fnv1a_byte(h, data[i]);
  return h;
}

}  // namespace manrs::util
