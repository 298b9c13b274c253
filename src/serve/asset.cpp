#include "serve/asset.hpp"

#include "core/split_planner.hpp"
#include "util/error.hpp"

namespace recoil::serve {

const char* kind_name(AssetKind kind) noexcept {
    switch (kind) {
        case AssetKind::static_file: return "static_file";
        case AssetKind::indexed_file: return "indexed_file";
        case AssetKind::chunked: return "chunked";
    }
    return "unknown";
}

FileAsset::FileAsset(std::string name, format::RecoilFile f)
    : Asset(std::move(name), format::serialized_file_size(f),
            f.metadata.num_splits()),
      file_(std::move(f)) {}

u32 FileAsset::combine_into(u32 parallelism, format::WireSink& sink) const {
    // combine_splits may grant fewer splits than requested; report the count
    // the wire actually carries. Serializing with substituted metadata keeps
    // the bitstream (and an indexed asset's id stream) uncopied.
    RecoilMetadata combined = combine_splits(file_.metadata, parallelism);
    const u32 splits = combined.num_splits();
    format::save_recoil_file_into(file_, combined, sink);
    return splits;
}

u32 FileAsset::range_into(u64 lo, u64 hi, format::WireSink& sink) const {
    return range_wire_into(file_, lo, hi, sink);
}

ChunkedAsset::ChunkedAsset(std::string name, stream::ChunkedStream s)
    : Asset(std::move(name), s.serialized_size(),
            static_cast<u32>(s.total_splits())),
      stream_(std::move(s)) {
    RECOIL_CHECK(!stream_.chunks.empty(), "ChunkedAsset: empty stream");
}

u32 ChunkedAsset::combine_into(u32 parallelism, format::WireSink& sink) const {
    // A chunked stream grants at least one split per chunk. `combined` is
    // metadata-deep only: its unit buffers share the asset's storage, and
    // the views emitted into the sink retain that storage past this frame.
    stream::ChunkedStream combined = stream_.combined(parallelism);
    const u32 splits = static_cast<u32>(combined.total_splits());
    combined.serialize_into(sink);
    return splits;
}

u32 ChunkedAsset::range_into(u64 lo, u64 hi, format::WireSink& sink) const {
    return range_wire_into(stream_, lo, hi, sink);
}

}  // namespace recoil::serve
