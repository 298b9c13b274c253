#include "rans/static_model.hpp"

#include <algorithm>
#include <cmath>

#include "rans/symbol_stats.hpp"
#include "util/error.hpp"

namespace recoil {

StaticModel::StaticModel(std::span<const u64> counts, u32 prob_bits)
    : prob_bits_(prob_bits),
      freq_(quantize_pdf(counts, prob_bits)),
      cum_(cumulative(freq_)) {
    build_luts();
}

StaticModel::StaticModel(std::span<const u32> freq, u32 prob_bits, int)
    : prob_bits_(prob_bits), freq_(freq.begin(), freq.end()), cum_(cumulative(freq_)) {
    build_luts();  // validates the sum while filling
}

void fill_decode_slots(std::span<const u32> freq, u32 prob_bits, u32* fc, u32* sym,
                       u32* packed) {
    RECOIL_CHECK(prob_bits >= 1 && prob_bits <= 16, "prob_bits outside [1, 16]");
    const u64 slots = u64{1} << prob_bits;
    u64 cum = 0;
    for (u32 s = 0; s < freq.size(); ++s) {
        const u32 f = freq[s];
        if (f == 0) continue;
        RECOIL_CHECK(f <= slots - cum, "pdf does not sum to 2^prob_bits");
        const u32 c = static_cast<u32>(cum);
        std::fill_n(fc + c, f, ((f - 1) << 16) | c);
        std::fill_n(sym + c, f, s);
        if (packed != nullptr) std::fill_n(packed + c, f, ((f - 1) << 20) | (c << 8) | s);
        cum += f;
    }
    RECOIL_CHECK(cum == slots, "pdf does not sum to 2^prob_bits");
}

void StaticModel::build_luts() {
    const u32 slots = u32{1} << prob_bits_;
    fc_.resize(slots);
    sym_.resize(slots);
    if (alphabet() <= 256 && prob_bits_ <= 12) packed_.resize(slots);
    fill_decode_slots(freq_, prob_bits_, fc_.data(), sym_.data(),
                      packed_.empty() ? nullptr : packed_.data());
    fast_.resize(alphabet());
    for (u32 s = 0; s < alphabet(); ++s) {
        fast_[s] = EncSymbolFast::make(freq_[s], cum_[s], prob_bits_);
    }
}

double StaticModel::cross_entropy_bits(std::span<const u64> counts) const {
    double bits = 0;
    const double n = static_cast<double>(prob_bits_);
    for (u32 s = 0; s < counts.size() && s < alphabet(); ++s) {
        if (counts[s] == 0) continue;
        RECOIL_CHECK(freq_[s] > 0, "cross_entropy_bits: symbol with zero frequency present");
        bits += static_cast<double>(counts[s]) *
                (n - std::log2(static_cast<double>(freq_[s])));
    }
    return bits;
}

}  // namespace recoil
