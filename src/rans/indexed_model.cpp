#include "rans/indexed_model.hpp"

#include <cstddef>
#include <new>

#include "util/error.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace recoil {

namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// True when every id is below `count`. A branch-free max-reduction, so the
/// compiler vectorizes it.
bool ids_below(const u8* ids, std::size_t n, u32 count) {
    u8 top = 0;
    for (std::size_t i = 0; i < n; ++i) top = ids[i] > top ? ids[i] : top;
    return top < count;
}

}  // namespace

void IndexedModelSet::FreeTables::operator()(void* p) const noexcept {
    ::operator delete(p, align);
}

/// Tables of a huge page or more are 2 MiB-aligned and, on Linux, advised
/// onto transparent huge pages: a 16-bit, 64-model set is 38 MB, and
/// first-touching that in 4 KiB pages costs more than filling it.
std::unique_ptr<void, IndexedModelSet::FreeTables> IndexedModelSet::alloc_tables(
    std::size_t bytes) {
    const bool huge = bytes >= kHugePage;
    if (huge) bytes = (bytes + kHugePage - 1) / kHugePage * kHugePage;
    const std::align_val_t align{huge ? kHugePage : alignof(std::max_align_t)};
    std::unique_ptr<void, FreeTables> p(::operator new(bytes, align), FreeTables{align});
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (huge) ::madvise(p.get(), bytes, MADV_HUGEPAGE);  // a hint: failure leaves 4 KiB pages
#endif
    return p;
}

IndexedModelSet::IndexedModelSet(const std::vector<StaticModel>& models, std::vector<u8> ids) {
    RECOIL_CHECK(!models.empty(), "IndexedModelSet: no models");
    std::vector<std::vector<u32>> pdfs;
    pdfs.reserve(models.size());
    for (const auto& m : models) {
        RECOIL_CHECK(m.prob_bits() == models[0].prob_bits(),
                     "IndexedModelSet: inconsistent models");
        pdfs.emplace_back(m.pdf().begin(), m.pdf().end());
    }
    auto owned = std::make_shared<const std::vector<u8>>(std::move(ids));
    ids_ = *owned;
    ids_keeper_ = std::move(owned);
    build(pdfs, models[0].prob_bits());
}

IndexedModelSet::IndexedModelSet(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                                 std::span<const u8> ids,
                                 std::shared_ptr<const void> ids_keeper)
    : ids_(ids), ids_keeper_(std::move(ids_keeper)) {
    build(pdfs, prob_bits);
}

void IndexedModelSet::build(std::span<const std::vector<u32>> pdfs, u32 prob_bits) {
    RECOIL_CHECK(!pdfs.empty(), "IndexedModelSet: no models");
    RECOIL_CHECK(pdfs.size() <= 256, "IndexedModelSet: at most 256 models (8-bit ids)");
    RECOIL_CHECK(prob_bits >= 1 && prob_bits <= 16,
                 "IndexedModelSet: prob_bits outside [1, 16]");
    prob_bits_ = prob_bits;
    alphabet_ = static_cast<u32>(pdfs[0].size());
    model_count_ = static_cast<u32>(pdfs.size());
    for (const auto& pdf : pdfs)
        RECOIL_CHECK(pdf.size() == alphabet_, "IndexedModelSet: inconsistent models");
    RECOIL_CHECK(ids_below(ids_.data(), ids_.size(), model_count_),
                 "IndexedModelSet: id out of range");

    // Every entry is written below (a pdf that does not cover all of its
    // slots raises), so the storage is left uninitialized.
    const std::size_t slots = std::size_t{1} << prob_bits_;
    const std::size_t slot_bytes = 2 * slots * model_count_ * sizeof(u32);
    storage_ = alloc_tables(slot_bytes +
                            std::size_t{alphabet_} * model_count_ * sizeof(EncSymbolFast));
    auto* const base = static_cast<std::byte*>(storage_.get());
    u32* const fc = reinterpret_cast<u32*>(base);
    u32* const sym = fc + slots * model_count_;
    auto* const fast = reinterpret_cast<EncSymbolFast*>(base + slot_bytes);
    for (u32 m = 0; m < model_count_; ++m) {
        fill_decode_slots(pdfs[m], prob_bits_, fc + m * slots, sym + m * slots);
        EncSymbolFast* e = fast + std::size_t{m} * alphabet_;
        u32 cum = 0;  // cannot wrap: the fill validated the sum
        for (u32 f : pdfs[m]) {
            *e++ = EncSymbolFast::make(f, cum, prob_bits_);
            cum += f;
        }
    }
    fc_ = fc;
    sym_ = sym;
    fast_ = fast;
}

}  // namespace recoil
