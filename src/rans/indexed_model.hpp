#pragma once
// Indexed (adaptive) model set: a family of quantized distributions plus a
// per-symbol-index model id. This is the hyperprior use case of §3.1: the
// distribution used at each position is selected by the symbol index, which
// is why Recoil metadata stores symbol indices at split points.
//
// Construction. Both constructors build every table straight from the
// models' quantized pdfs, in one pass per model, into contiguous arrays:
// the decode slots through fill_decode_slots (the same writer StaticModel
// uses), then one division-free encode entry per (model, symbol). No
// per-model StaticModel table is built or copied. The pdf constructor is the
// decoder's (a parsed container or range wire ships the pdfs); the
// StaticModel constructor is the encoder's (the models were quantized from
// counts) and only reads their pdfs.
//
// Ids lifetime. The set reads `ids` in place and never copies them. The
// StaticModel constructor takes ownership of its id vector; the pdf
// constructor borrows a span and retains `ids_keeper`, the owner of the
// storage behind it (a container's ByteBuffer::keeper(): its shared vector
// or its mapped file). A null keeper means the caller keeps the ids alive
// for the set's lifetime.

#include <memory>
#include <new>
#include <span>
#include <vector>

#include "rans/static_model.hpp"

namespace recoil {

class IndexedModelSet {
public:
    /// Encoder construction. All models must share prob_bits and alphabet
    /// size. `ids[i]` selects the model for symbol index i; ids.size() must
    /// cover the input length.
    IndexedModelSet(const std::vector<StaticModel>& models, std::vector<u8> ids);

    /// Decoder construction from shipped pdfs: one per model, all of one
    /// alphabet size, each summing to exactly 2^prob_bits (checked while
    /// the slots are filled), at most 256 of them, every id below their
    /// count. Any violation raises recoil::Error.
    IndexedModelSet(std::span<const std::vector<u32>> pdfs, u32 prob_bits,
                    std::span<const u8> ids, std::shared_ptr<const void> ids_keeper);

    u32 prob_bits() const noexcept { return prob_bits_; }
    u32 alphabet() const noexcept { return alphabet_; }
    u32 model_count() const noexcept { return model_count_; }
    std::span<const u8> ids() const noexcept { return ids_; }

    EncSymbol enc_lookup(u64 sym_index, u32 sym) const noexcept {
        const EncSymbolFast& e = enc_fast(sym_index, sym);
        return EncSymbol{e.freq, e.cum(prob_bits_)};
    }

    /// Division-free encode entry for the model selected at `sym_index`.
    const EncSymbolFast& enc_fast(u64 sym_index, u32 sym) const noexcept {
        return fast_[u64{ids_[sym_index]} * alphabet_ + sym];
    }

    DecSymbol dec_lookup(u64 sym_index, u32 slot) const noexcept {
        return tables().lookup(sym_index, slot);
    }

    DecodeTables tables() const noexcept {
        DecodeTables t;
        t.fc = fc_;
        t.sym = sym_;
        t.ids = ids_.data();
        t.prob_bits = prob_bits_;
        return t;
    }

private:
    struct FreeTables {
        std::align_val_t align;
        void operator()(void* p) const noexcept;
    };

    /// Uninitialized storage for `bytes` of tables.
    static std::unique_ptr<void, FreeTables> alloc_tables(std::size_t bytes);
    void build(std::span<const std::vector<u32>> pdfs, u32 prob_bits);

    u32 prob_bits_ = 0;
    u32 alphabet_ = 0;
    u32 model_count_ = 0;
    std::span<const u8> ids_;
    std::shared_ptr<const void> ids_keeper_;
    // One allocation holds every table: each model's fc slots, then each
    // model's sym slots (so SIMD decoders gather with index
    // (id << prob_bits) | slot), then the encode entries, alphabet stride
    // per model. The pointers below point into it.
    std::unique_ptr<void, FreeTables> storage_;
    const u32* fc_ = nullptr;
    const u32* sym_ = nullptr;
    const EncSymbolFast* fast_ = nullptr;
};

}  // namespace recoil
