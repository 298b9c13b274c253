#include "format/crc32c.hpp"

#include <nmmintrin.h>

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

u64 load_u64(const u8* p) {
    u64 w;
    std::memcpy(&w, p, 8);
    return w;
}

}  // namespace

namespace detail {

__attribute__((target("sse4.2"))) u32 crc32c_hw(std::span<const u8> bytes,
                                                u32 state) {
    const u8* p = bytes.data();
    std::size_t n = bytes.size();
    u64 crc = ~state;
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

}  // namespace recoil::format
