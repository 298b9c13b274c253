#pragma once
// Shared helpers for the test suite: deterministic synthetic symbol streams
// with controllable skew, model construction shortcuts, and trailer
// resealing for hostile-input tests.

#include <span>
#include <vector>

#include "format/crc32c.hpp"
#include "rans/static_model.hpp"
#include "rans/symbol_stats.hpp"
#include "util/xoshiro.hpp"

namespace recoil::test {

/// Recompute the 8-byte CRC32C trailer after tampering, as an attacker can,
/// so a structural check (not the checksum) is what must reject the bytes.
inline std::vector<u8> reseal(std::vector<u8> f) {
    f.resize(f.size() - 8);
    const u64 sum = format::crc32c(f);
    for (int i = 0; i < 8; ++i) f.push_back(static_cast<u8>(sum >> (8 * i)));
    return f;
}

/// Geometric-ish symbol stream over [0, alphabet): p(k) ~ q^k. q close to 1
/// is nearly uniform (incompressible), small q is highly skewed.
template <typename TSym = u8>
std::vector<TSym> geometric_symbols(std::size_t n, double q, u32 alphabet,
                                    u64 seed) {
    Xoshiro256 rng(seed);
    std::vector<TSym> out(n);
    for (auto& s : out) {
        u32 v = 0;
        while (v + 1 < alphabet && rng.uniform() < q) ++v;
        s = static_cast<TSym>(v);
    }
    return out;
}

template <typename TSym = u8>
StaticModel model_for(std::span<const TSym> syms, u32 prob_bits, u32 alphabet) {
    std::vector<u64> counts(alphabet, 0);
    for (TSym s : syms) ++counts[static_cast<u32>(s)];
    return StaticModel(counts, prob_bits);
}

}  // namespace recoil::test
