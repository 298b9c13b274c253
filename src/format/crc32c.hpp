#pragma once
// CRC32C (Castagnoli), the library's one integrity checksum: every container
// trailer, protocol frame, whole-wire stream digest and store manifest
// carries it, zero-extended into a u64 field. It guards against accidental
// corruption only; it is not a MAC and an attacker can recompute it.
//
// The API is zlib-style incremental: the state is the CRC of the bytes seen
// so far (0 for none), so crc32c(b, crc32c(a)) == crc32c(a ‖ b) and a wire
// can be hashed piece by piece as it is produced. The kernel is picked once
// per process by CPUID: the SSE4.2 `crc32` instruction over 8-byte words
// when the CPU has it, a slicing-by-8 table loop otherwise.

#include <span>

#include "util/ints.hpp"

namespace recoil::format {

/// CRC32C of `bytes`, continuing from `state` (the CRC of everything
/// before them; 0 starts a fresh checksum).
u32 crc32c(std::span<const u8> bytes, u32 state = 0);

namespace detail {

/// The two kernels behind crc32c(), exposed so tests can hold them against
/// each other. crc32c_hw requires SSE4.2 (cpu_features().sse42).
u32 crc32c_hw(std::span<const u8> bytes, u32 state);
u32 crc32c_table(std::span<const u8> bytes, u32 state);

}  // namespace detail
}  // namespace recoil::format
