#pragma once
// CRC32C (Castagnoli), the library's one integrity checksum: every container
// trailer, protocol frame, whole-wire stream digest and store manifest
// carries it, zero-extended into a u64 field. It guards against accidental
// corruption only; it is not a MAC and an attacker can recompute it.
//
// The API is zlib-style incremental: the state is the CRC of the bytes seen
// so far (0 for none), so crc32c(b, crc32c(a)) == crc32c(a ‖ b) and a wire
// can be hashed piece by piece as it is produced. crc32c_combine() joins two
// CRCs computed independently (zlib's crc32_combine technique: CRC32C is
// linear, so crc(a ‖ b) = crc(a)·x^(8|b|) mod P ⊕ crc(b)), which lets a
// frame's trailer be derived from its parts' CRCs without re-reading them.
//
// The kernel is picked once per process by CPUID. With SSE4.2 and PCLMUL it
// runs three independent `crc32` chains over fixed blocks (the instruction
// has a 3-cycle latency and 1-cycle throughput, so one chain leaves two
// thirds of it idle) and merges them with one carry-less multiply per
// chain; the tail runs on one chain. With SSE4.2 alone it is that one
// chain throughout, and otherwise a slicing-by-8 table loop.

#include <cstddef>
#include <span>

#include "util/ints.hpp"

namespace recoil::format {

/// CRC32C of `bytes`, continuing from `state` (the CRC of everything
/// before them; 0 starts a fresh checksum).
u32 crc32c(std::span<const u8> bytes, u32 state = 0);

/// CRC32C of a ‖ b from crc_a = crc32c(a), crc_b = crc32c(b) and |b|, in
/// O(log len_b) time without reading either.
u32 crc32c_combine(u32 crc_a, u32 crc_b, u64 len_b);

/// Shortest run whose CRC is worth recovering or folding by
/// crc32c_combine() rather than by hashing the run again. A combine costs
/// one bit-serial GF(2) multiply per set bit of 8·len_b, 0.13–0.35 µs,
/// and a frame pays two of them where the alternative is one extra pass,
/// so the pass wins below several KiB.
inline constexpr std::size_t kCrc32cCombineMinBytes = 8 * 1024;

namespace detail {

/// Bytes each of crc32c_hw's three chains covers per round: long rounds
/// first, then short ones, then one chain to the end.
inline constexpr std::size_t kCrc32cLongBlock = 4096;
inline constexpr std::size_t kCrc32cShortBlock = 256;

/// The kernels behind crc32c(), exposed so tests can hold them against
/// each other. crc32c_hw requires SSE4.2 (cpu_features().sse42) and runs
/// its three chains only with PCLMUL.
u32 crc32c_hw(std::span<const u8> bytes, u32 state);
u32 crc32c_table(std::span<const u8> bytes, u32 state);

}  // namespace detail
}  // namespace recoil::format
