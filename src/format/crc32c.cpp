#include "format/crc32c.hpp"

#include <immintrin.h>

#include <array>
#include <cstring>

#include "util/cpu.hpp"

namespace recoil::format {

namespace {

/// Reflected Castagnoli polynomial.
constexpr u32 kPoly = 0x82F63B78u;

/// Slicing-by-8 tables: kTables[s][b] is the CRC contribution of byte `b`
/// followed by `s` zero bytes.
constexpr std::array<std::array<u32, 256>, 8> make_tables() {
    std::array<std::array<u32, 256>, 8> t{};
    for (u32 i = 0; i < 256; ++i) {
        u32 c = i;
        for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
        t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i)
        for (std::size_t s = 1; s < 8; ++s)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    return t;
}

constexpr auto kTables = make_tables();

// GF(2) polynomial arithmetic modulo P in the reflected representation the
// CRC register uses: bit 31 holds x^0 and bit 0 holds x^31.

/// a(x)·b(x) mod P (zlib's multmodp).
constexpr u32 multmodp(u32 a, u32 b) {
    u32 p = 0;
    for (u32 m = u32{1} << 31; m != 0; m >>= 1) {
        if ((a & m) != 0) p ^= b;
        b = (b >> 1) ^ (kPoly & (0u - (b & 1u)));
    }
    return p;
}

/// kX2k[k] = x^(2^k) mod P.
constexpr std::array<u32, 64> make_x2k() {
    std::array<u32, 64> t{};
    t[0] = u32{1} << 30;  // x^1
    for (std::size_t k = 1; k < t.size(); ++k) t[k] = multmodp(t[k - 1], t[k - 1]);
    return t;
}

constexpr auto kX2k = make_x2k();

/// x^n mod P, by the binary expansion of n.
constexpr u32 xpow(u64 n) {
    u32 p = u32{1} << 31;  // x^0
    for (std::size_t k = 0; n != 0; ++k, n >>= 1)
        if ((n & 1) != 0) p = multmodp(kX2k[k], p);
    return p;
}

/// Constant that shifts a CRC register over `bytes` zero bytes through
/// shift_hw(): x^(8·bytes − 33) mod P. The 33 cancels the one-bit offset of
/// a carry-less product plus the x^32 the `crc32` instruction multiplies in
/// while reducing it.
constexpr u64 shift_constant(u64 bytes) { return xpow(8 * bytes - 33); }

constexpr u64 kLongShift1 = shift_constant(detail::kCrc32cLongBlock);
constexpr u64 kLongShift2 = shift_constant(2 * detail::kCrc32cLongBlock);
constexpr u64 kShortShift1 = shift_constant(detail::kCrc32cShortBlock);
constexpr u64 kShortShift2 = shift_constant(2 * detail::kCrc32cShortBlock);

u64 load_u64(const u8* p) {
    u64 w;
    std::memcpy(&w, p, 8);
    return w;
}

/// crc·x^(8·bytes) mod P for the `k` = shift_constant(bytes): one
/// carry-less multiply, reduced back to 32 bits by the crc32 instruction.
__attribute__((target("sse4.2,pclmul"))) inline u64 shift_hw(u64 crc, u64 k) {
    const __m128i prod = _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(crc)),
                                              _mm_cvtsi64_si128(static_cast<long long>(k)),
                                              0x00);
    return _mm_crc32_u64(0, static_cast<u64>(_mm_cvtsi128_si64(prod)));
}

/// Rounds of three `kBlock`-byte chains over [p, p + n) while 3·kBlock
/// bytes remain. Chain 0 continues the register `crc`; chains 1 and 2
/// start from 0 and are shifted into place: for the raw register,
/// crc(A ‖ B) = crc(A)·x^(8|B|) ⊕ crc_from_zero(B).
template <std::size_t kBlock>
__attribute__((target("sse4.2,pclmul"))) inline u64 crc_rounds(const u8*& p, std::size_t& n,
                                                              u64 crc, u64 shift1,
                                                              u64 shift2) {
    for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
        u64 c0 = crc, c1 = 0, c2 = 0;
        for (std::size_t i = 0; i < kBlock; i += 8) {
            c0 = _mm_crc32_u64(c0, load_u64(p + i));
            c1 = _mm_crc32_u64(c1, load_u64(p + kBlock + i));
            c2 = _mm_crc32_u64(c2, load_u64(p + 2 * kBlock + i));
        }
        crc = shift_hw(c0, shift2) ^ shift_hw(c1, shift1) ^ c2;
    }
    return crc;
}

/// Every three-chain round that fits, long blocks first; advances p and n
/// past what it hashed.
__attribute__((target("sse4.2,pclmul"), noinline)) u64 parallel_rounds(const u8*& p,
                                                                       std::size_t& n,
                                                                       u64 crc) {
    crc = crc_rounds<detail::kCrc32cLongBlock>(p, n, crc, kLongShift1, kLongShift2);
    return crc_rounds<detail::kCrc32cShortBlock>(p, n, crc, kShortShift1, kShortShift2);
}

}  // namespace

namespace detail {

__attribute__((target("sse4.2"))) u32 crc32c_hw(std::span<const u8> bytes, u32 state) {
    const u8* p = bytes.data();
    std::size_t n = bytes.size();
    u64 crc = static_cast<u32>(~state);
    if (cpu_features().pclmul) crc = parallel_rounds(p, n, crc);
    for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, load_u64(p));
    u32 c = static_cast<u32>(crc);
    for (; n > 0; ++p, --n) c = _mm_crc32_u8(c, *p);
    return ~c;
}

u32 crc32c_table(std::span<const u8> bytes, u32 state) {
    const u8* p = bytes.data();
    std::size_t n = bytes.size();
    u32 c = ~state;
    for (; n >= 8; p += 8, n -= 8) {
        const u64 w = load_u64(p) ^ c;  // little-endian word
        c = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
            kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
            kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
            kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
    }
    for (; n > 0; ++p, --n) c = (c >> 8) ^ kTables[0][(c ^ *p) & 0xFF];
    return ~c;
}

}  // namespace detail

u32 crc32c(std::span<const u8> bytes, u32 state) {
    static const auto kernel =
        cpu_features().sse42 ? &detail::crc32c_hw : &detail::crc32c_table;
    return kernel(bytes, state);
}

// With the pre- and post-inversion of the standard CRC, the inversions
// cancel: crc(a ‖ b) = crc(a)·x^(8|b|) mod P ⊕ crc(b).
u32 crc32c_combine(u32 crc_a, u32 crc_b, u64 len_b) {
    return multmodp(xpow(8 * len_b), crc_a) ^ crc_b;
}

}  // namespace recoil::format
