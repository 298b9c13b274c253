#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>

#include "rans/indexed_model.hpp"
#include "rans/static_model.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace recoil {
namespace {

TEST(StaticModel, LookupInvariants) {
    std::vector<u64> counts(256, 0);
    counts['a'] = 70;
    counts['b'] = 20;
    counts['c'] = 10;
    StaticModel m(counts, 11);
    // Every slot decodes to the symbol whose [cum, cum+freq) contains it.
    for (u32 slot = 0; slot < (1u << 11); ++slot) {
        DecSymbol d = m.dec_lookup(0, slot);
        EXPECT_LE(m.cum(d.sym), slot);
        EXPECT_LT(slot, m.cum(d.sym) + m.freq(d.sym));
        EXPECT_EQ(d.freq, m.freq(d.sym));
        EXPECT_EQ(d.cum, m.cum(d.sym));
    }
}

TEST(StaticModel, EncDecConsistent) {
    auto syms = test::geometric_symbols<u8>(5000, 0.8, 256, 7);
    auto m = test::model_for<u8>(syms, 12, 256);
    for (u32 s = 0; s < 256; ++s) {
        if (m.freq(s) == 0) continue;
        EncSymbol e = m.enc_lookup(0, s);
        DecSymbol d = m.dec_lookup(0, e.cum);
        EXPECT_EQ(d.sym, s);
    }
}

TEST(StaticModel, PackedLutOnlyWhenApplicable) {
    std::vector<u64> small(256, 1);
    EXPECT_NE(StaticModel(small, 12).tables().packed, nullptr);
    EXPECT_EQ(StaticModel(small, 13).tables().packed, nullptr);
    std::vector<u64> wide(4096, 1);
    EXPECT_EQ(StaticModel(wide, 12).tables().packed, nullptr);
}

TEST(StaticModel, PackedLutAgreesWithWide) {
    auto syms = test::geometric_symbols<u8>(3000, 0.5, 256, 11);
    auto m = test::model_for<u8>(syms, 11, 256);
    const DecodeTables t = m.tables();
    ASSERT_NE(t.packed, nullptr);
    for (u32 slot = 0; slot < (1u << 11); ++slot) {
        const u32 p = t.packed[slot];
        DecSymbol d = t.lookup(0, slot);
        EXPECT_EQ(p & 0xffu, d.sym);
        EXPECT_EQ((p >> 8) & 0xfffu, d.cum);
        EXPECT_EQ((p >> 20) + 1, d.freq);
    }
}

TEST(StaticModel, CrossEntropyMatchesIdealForUniform) {
    std::vector<u64> counts(16, 100);
    StaticModel m(counts, 8);
    const double bits = m.cross_entropy_bits(counts);
    EXPECT_NEAR(bits, 1600 * 4.0, 1e-6);  // 16 equiprobable symbols = 4 bits
}

TEST(IndexedModel, SelectsPerIndex) {
    // Model 0 strongly favors symbol 0; model 1 favors symbol 1.
    std::vector<u64> c0(4, 1), c1(4, 1);
    c0[0] = 1000;
    c1[1] = 1000;
    std::vector<StaticModel> models{StaticModel(c0, 8), StaticModel(c1, 8)};
    std::vector<u8> ids{0, 1, 0, 1};
    IndexedModelSet set(std::move(models), ids);
    EXPECT_GT(set.enc_lookup(0, 0).freq, set.enc_lookup(1, 0).freq);
    EXPECT_GT(set.enc_lookup(1, 1).freq, set.enc_lookup(0, 1).freq);
    // Decode table dispatches on the index too.
    DecSymbol d0 = set.dec_lookup(0, 10);
    EXPECT_EQ(d0.sym, 0u);
    DecSymbol d1 = set.dec_lookup(1, 10);
    EXPECT_EQ(d1.sym, 1u);
}

TEST(IndexedModel, RejectsMismatchedModels) {
    std::vector<u64> a(4, 1), b(8, 1);
    std::vector<StaticModel> models;
    models.emplace_back(a, 8);
    models.emplace_back(b, 8);
    EXPECT_THROW((IndexedModelSet(std::move(models), std::vector<u8>{0})), Error);
}

TEST(IndexedModel, RejectsOutOfRangeIds) {
    std::vector<u64> a(4, 1);
    std::vector<StaticModel> models;
    models.emplace_back(a, 8);
    EXPECT_THROW((IndexedModelSet(std::move(models), std::vector<u8>{1})), Error);
}

/// Seeded random pdf over `alphabet` symbols summing to 2^prob_bits, about
/// a quarter of the symbols forced to frequency zero.
std::vector<u32> random_pdf(u32 alphabet, u32 prob_bits, Xoshiro256& rng) {
    std::vector<u32> live;
    for (u32 s = 0; s < alphabet; ++s)
        if (rng.below(4) != 0) live.push_back(s);
    if (live.empty()) live.push_back(static_cast<u32>(rng.below(alphabet)));
    std::vector<u32> freq(alphabet, 0);
    for (u32 unit = 0; unit < (u32{1} << prob_bits); ++unit)
        ++freq[live[rng.below(live.size())]];
    return freq;
}

/// Reference slot tables, written the obvious way, one slot at a time.
void reference_slots(std::span<const u32> freq, std::vector<u32>& fc,
                     std::vector<u32>& sym) {
    u32 cum = 0;
    for (u32 s = 0; s < freq.size(); ++s) {
        for (u32 slot = cum; slot < cum + freq[s]; ++slot) {
            fc.push_back(((freq[s] - 1) << 16) | cum);
            sym.push_back(s);
        }
        cum += freq[s];
    }
}

TEST(IndexedModel, PdfTablesEqualStaticModelTablesSlotForSlot) {
    Xoshiro256 rng(2024);
    struct Case {
        u32 prob_bits, alphabet, models;
    };
    for (const Case c : {Case{1, 3, 4}, Case{1, 4096, 3}, Case{11, 256, 5},
                         Case{11, 4096, 2}, Case{16, 64, 4}, Case{16, 4096, 3}}) {
        std::vector<std::vector<u32>> pdfs;
        for (u32 m = 0; m < c.models; ++m)
            pdfs.push_back(random_pdf(c.alphabet, c.prob_bits, rng));
        if (c.prob_bits == 16) {  // one symbol owning every slot: fc 0xffff0000
            pdfs.back().assign(c.alphabet, 0);
            pdfs.back()[c.alphabet / 2] = u32{1} << 16;
        }
        std::vector<u8> ids(1000);
        for (auto& id : ids) id = static_cast<u8>(rng.below(c.models));
        const IndexedModelSet set(pdfs, c.prob_bits, ids, nullptr);
        ASSERT_EQ(set.model_count(), c.models);
        ASSERT_EQ(set.alphabet(), c.alphabet);
        EXPECT_EQ(set.ids().data(), ids.data());  // borrowed, not copied

        const std::size_t slots = std::size_t{1} << c.prob_bits;
        const DecodeTables t = set.tables();
        for (u32 m = 0; m < c.models; ++m) {
            const StaticModel sm(pdfs[m], c.prob_bits, 0);
            const DecodeTables st = sm.tables();
            EXPECT_EQ(std::memcmp(t.fc + m * slots, st.fc, slots * 4), 0)
                << "fc, n=" << c.prob_bits << " model " << m;
            EXPECT_EQ(std::memcmp(t.sym + m * slots, st.sym, slots * 4), 0)
                << "sym, n=" << c.prob_bits << " model " << m;
            std::vector<u32> fc, sym;
            reference_slots(pdfs[m], fc, sym);
            ASSERT_EQ(fc.size(), slots);
            EXPECT_EQ(std::memcmp(t.fc + m * slots, fc.data(), slots * 4), 0);
            EXPECT_EQ(std::memcmp(t.sym + m * slots, sym.data(), slots * 4), 0);
        }
        if (c.prob_bits == 16) {
            const u32 last = c.models - 1;
            EXPECT_EQ(t.fc[last * slots], 0xffff0000u);
            EXPECT_EQ(t.fc[last * slots + slots - 1], 0xffff0000u);
        }
        // The encode entries agree with each model's own.
        for (std::size_t i = 0; i < ids.size(); i += 37) {
            const StaticModel sm(pdfs[ids[i]], c.prob_bits, 0);
            for (u32 s = 0; s < c.alphabet; s += 1 + c.alphabet / 64) {
                const EncSymbolFast& a = set.enc_fast(i, s);
                const EncSymbolFast& b = sm.enc_fast(0, s);
                EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
                EXPECT_EQ(set.enc_lookup(i, s).freq, sm.freq(s));
                EXPECT_EQ(set.enc_lookup(i, s).cum, sm.cum(s));
            }
        }
    }
}

TEST(IndexedModel, PdfConstructionRetainsTheIdKeeper) {
    std::vector<std::vector<u32>> pdfs{{128, 128}, {1, 255}};
    auto ids = std::make_shared<std::vector<u8>>(std::vector<u8>{0, 1, 1, 0});
    const std::span<const u8> view(*ids);
    std::optional<IndexedModelSet> set;
    set.emplace(pdfs, 8, view, ids);
    ids.reset();  // the set's keeper is now the only owner
    const IndexedModelSet moved = std::move(*set);
    set.reset();
    EXPECT_EQ(moved.dec_lookup(2, 0).sym, 0u);
    EXPECT_EQ(moved.dec_lookup(2, 1).sym, 1u);
    EXPECT_EQ(moved.dec_lookup(3, 200).sym, 1u);
}

TEST(IndexedModel, PdfConstructionRejectsHostileTables) {
    const std::vector<u8> ids{0, 1, 0};
    auto build = [&](std::vector<std::vector<u32>> pdfs, u32 prob_bits,
                     std::span<const u8> i) {
        return IndexedModelSet(pdfs, prob_bits, i, nullptr);
    };
    const std::vector<u32> ok{200, 56};
    EXPECT_NO_THROW(build({ok, ok}, 8, ids));
    // Sums short of 2^n.
    EXPECT_THROW(build({ok, {100, 100}}, 8, ids), Error);
    // Overshoots mid-table, before the last symbol: the fill must stop
    // before writing past the model's slots.
    EXPECT_THROW(build({ok, {200, 200, 0}}, 8, ids), Error);
    // Wraps a 32-bit sum to exactly 2^n.
    EXPECT_THROW(build({ok, {0xffffffffu, 257}}, 8, ids), Error);
    // Mismatched alphabets.
    EXPECT_THROW(build({ok, {200, 56, 0}}, 8, ids), Error);
    // An id at or above the model count.
    EXPECT_THROW(build({ok, ok}, 8, std::vector<u8>{0, 2}), Error);
    EXPECT_THROW(build({ok}, 8, std::vector<u8>{1}), Error);
    // No models, more than 256, prob_bits outside [1, 16].
    EXPECT_THROW(build({}, 8, {}), Error);
    EXPECT_THROW(build(std::vector<std::vector<u32>>(257, ok), 8, {}), Error);
    EXPECT_NO_THROW(build({{1, 1}}, 1, {}));
    EXPECT_THROW(build({{0, 1}}, 0, {}), Error);
    EXPECT_THROW(build({std::vector<u32>{u32{1} << 17}}, 17, {}), Error);
}

}  // namespace
}  // namespace recoil
