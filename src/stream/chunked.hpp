#pragma once
// Chunked streaming layer: the integration path the paper's conclusion
// sketches ("Recoil can be an easy drop-in replacement for the
// single-threaded interleaved rANS coders" of image/video formats). A stream
// is a sequence of independently-modeled chunks (frames, tiles, file
// blocks); each chunk is a Recoil stream with its own order-0 model and
// detachable split metadata. Decoding exposes two-level parallelism — chunks
// x splits — as one flat work list, and the serving path still scales
// metadata per client without touching any chunk payload.

#include <memory>
#include <span>
#include <vector>

#include "core/metadata.hpp"
#include "format/wire_io.hpp"
#include "rans/static_model.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace recoil::stream {

struct ChunkedOptions {
    u32 prob_bits = 11;
    /// Split points planned per chunk at encode time (the maximum
    /// parallelism a client can request within one chunk).
    u32 max_splits_per_chunk = 64;
};

/// One independently decodable chunk. Units share storage on copy and may be
/// a zero-copy view into a mapped container (see parse_view).
struct Chunk {
    std::vector<u32> freq;  ///< quantized pdf (rebuilds the chunk's model)
    RecoilMetadata metadata;
    format::UnitBuffer units;
};

struct ChunkedStream {
    u32 prob_bits = 0;
    std::vector<Chunk> chunks;

    u64 total_symbols() const noexcept {
        u64 n = 0;
        for (const auto& c : chunks) n += c.metadata.num_symbols;
        return n;
    }

    /// Total decode-side parallel work items (splits across all chunks).
    u64 total_splits() const noexcept {
        u64 n = 0;
        for (const auto& c : chunks) n += c.metadata.num_splits();
        return n;
    }

    /// Absolute symbol offset of each chunk's first symbol, with the stream
    /// total appended (chunks.size() + 1 entries). This is the flat symbol
    /// space that byte-range requests over chunked assets address.
    std::vector<u64> chunk_offsets() const;

    /// Serialize with a CRC32C trailer; parse validates everything.
    /// The RCS3 layout pads per-chunk unit payloads to even offsets; parse
    /// refuses the FNV-era RCS1/RCS2. serialize is a materializing adapter
    /// over serialize_into (one producer, two framings).
    std::vector<u8> serialize() const;
    /// Streaming producer: emit the RCS3 wire into `sink` piece by piece —
    /// one small owned section plus one borrowed unit-payload view per
    /// chunk — bit-exact with serialize(). Peak producer memory is
    /// O(largest chunk metadata), not O(wire).
    void serialize_into(format::WireSink& sink) const;
    static ChunkedStream parse(std::span<const u8> bytes);

    /// Parse without copying any chunk's bitstream: unit buffers are views
    /// into `bytes`, kept alive by `keeper` (which must own the storage
    /// behind `bytes`). Misaligned payloads fall back to owned copies.
    /// `checksum_verified` true skips re-hashing bytes the caller already
    /// validated; structural validation always runs.
    static ChunkedStream parse_view(std::span<const u8> bytes,
                                    std::shared_ptr<const void> keeper,
                                    bool checksum_verified = false);

    /// Exact byte count serialize() would produce, without materializing the
    /// O(bitstream) buffer (only the per-chunk metadata is encoded).
    u64 serialized_size() const;

    /// Decoder-adaptive serving across chunks: combine every chunk's
    /// metadata so the whole stream offers ~`target_parallelism` work items
    /// (at least one split per chunk). Metadata-only, O(total splits).
    ChunkedStream combined(u32 target_parallelism) const;
};

class ChunkedEncoder {
public:
    explicit ChunkedEncoder(ChunkedOptions opt = {}) : opt_(opt) {}

    /// Model, encode and append one chunk. Chunks may have any size >= 1.
    void add_chunk(std::span<const u8> data);

    ChunkedStream finish() { return std::move(stream_); }

private:
    ChunkedOptions opt_;
    ChunkedStream stream_;
};

/// Decode the whole stream. Work items are (chunk, split) pairs flattened
/// into one pool job, so a stream of many small chunks still saturates the
/// machine. Backend selects the SIMD kernel for the phase-2/3 ranges.
std::vector<u8> decode_chunked(const ChunkedStream& stream, ThreadPool* pool = nullptr,
                               simd::Backend backend = simd::pick_backend());

/// Decode a single chunk (random access into the stream).
std::vector<u8> decode_chunk(const Chunk& chunk, u32 prob_bits,
                             ThreadPool* pool = nullptr,
                             simd::Backend backend = simd::pick_backend());

}  // namespace recoil::stream
