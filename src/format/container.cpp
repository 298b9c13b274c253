#include "format/container.hpp"

#include <cstring>

#include "core/metadata_codec.hpp"
#include "format/wire_io.hpp"
#include "util/error.hpp"

namespace recoil::format {

using namespace wire;

namespace {

constexpr char kMagic[4] = {'R', 'C', 'F', '1'};
/// 3: CRC32C trailer. Earlier versions (FNV-1a trailers) are refused.
constexpr u8 kVersion = 3;

}  // namespace

u64 fnv1a(std::span<const u8> bytes) {
    u64 h = 0xcbf29ce484222325ull;
    for (u8 b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

StaticModel RecoilFile::build_static_model() const {
    const auto& p = std::get<StaticPayload>(model);
    return StaticModel(std::span<const u32>(p.freq), prob_bits, 0);
}

IndexedModelSet RecoilFile::build_indexed_model() const {
    const auto& p = std::get<IndexedPayload>(model);
    return IndexedModelSet(p.freqs, prob_bits, p.ids, p.ids.keeper());
}

std::vector<u8> save_recoil_file(const RecoilFile& f) {
    return save_recoil_file(f, f.metadata);
}

std::vector<u8> save_recoil_file(const RecoilFile& f,
                                 const RecoilMetadata& metadata) {
    VectorSink sink;
    save_recoil_file_into(f, metadata, sink);
    return std::move(sink.out);
}

void save_recoil_file_into(const RecoilFile& f, const RecoilMetadata& metadata,
                           WireSink& sink) {
    HashingSink hs(sink);
    std::vector<u8> head;
    head.insert(head.end(), kMagic, kMagic + 4);
    head.push_back(kVersion);
    head.push_back(f.sym_width);
    head.push_back(f.is_indexed() ? 1 : 0);
    head.push_back(static_cast<u8>(f.prob_bits));

    if (f.is_indexed()) {
        const auto& p = std::get<RecoilFile::IndexedPayload>(f.model);
        put_u32(head, static_cast<u32>(p.freqs.size()));
        for (const auto& freq : p.freqs) put_freq_table(head, freq);
        put_u64(head, p.ids.size());
        hs.write(std::move(head));
        hs.write(p.ids);  // shared view of the id stream, never a copy
    } else {
        const auto& p = std::get<RecoilFile::StaticPayload>(f.model);
        put_freq_table(head, p.freq);
        hs.write(std::move(head));
    }

    std::vector<u8> mid;
    const std::vector<u8> meta = serialize_metadata(metadata);
    put_u64(mid, meta.size());
    mid.insert(mid.end(), meta.begin(), meta.end());
    put_u64(mid, f.units.size());
    put_unit_pad(mid, hs.bytes());
    hs.write(std::move(mid));
    hs.write(unit_wire_bytes(f.units, 0, f.units.size()));

    std::vector<u8> trailer;
    put_u64(trailer, hs.digest());
    sink.write(std::move(trailer));  // the checksum covers everything above
}

namespace {

/// Shared parse: owning (keeper null: units/ids copied out of `bytes`) or
/// view mode (keeper owns `bytes`: units/ids borrow the mapped storage).
RecoilFile load_recoil_file_impl(std::span<const u8> bytes,
                                 const std::shared_ptr<const void>& keeper,
                                 bool checksum_verified) {
    Cursor c{checked_payload(bytes, "container", !checksum_verified),
             "container"};
    if (std::memcmp(c.get_bytes(4).data(), kMagic, 4) != 0)
        raise("container: bad magic");
    if (c.get_u8() != kVersion) raise("container: unsupported version");

    RecoilFile f;
    f.sym_width = c.get_u8();
    if (f.sym_width != 1 && f.sym_width != 2) raise("container: bad symbol width");
    const bool indexed = c.get_u8() != 0;
    f.prob_bits = c.get_u8();
    if (f.prob_bits < 1 || f.prob_bits > 16) raise("container: bad prob_bits");

    if (indexed) {
        RecoilFile::IndexedPayload p;
        const u32 k = c.get_u32();
        if (k == 0 || k > 256) raise("container: bad model count");
        p.freqs.resize(k);
        for (auto& freq : p.freqs) {
            freq = get_freq_table(c, f.prob_bits);
            if (freq.size() != p.freqs[0].size())
                raise("container: model alphabets differ");
        }
        const u64 ids_len = c.get_u64();
        auto ids = c.get_bytes(ids_len);
        if (keeper != nullptr)
            p.ids = ByteBuffer::view(ids, keeper);
        else
            p.ids = std::vector<u8>(ids.begin(), ids.end());
        f.model = std::move(p);
    } else {
        f.model = RecoilFile::StaticPayload{get_freq_table(c, f.prob_bits)};
    }

    const u64 meta_len = c.get_u64();
    f.metadata = deserialize_metadata(c.get_bytes(meta_len));
    if (indexed && std::get<RecoilFile::IndexedPayload>(f.model).ids.size() <
                       f.metadata.num_symbols)
        raise("container: id stream shorter than the symbol stream");

    const u64 unit_count = c.get_u64();
    skip_unit_pad(c);
    f.units = get_unit_buffer(c, unit_count, keeper);
    if (f.metadata.num_units != unit_count)
        raise("container: metadata/bitstream length mismatch");
    return f;
}

}  // namespace

RecoilFile load_recoil_file(std::span<const u8> bytes) {
    return load_recoil_file_impl(bytes, nullptr, false);
}

RecoilFile load_recoil_file_view(std::span<const u8> bytes,
                                 std::shared_ptr<const void> keeper,
                                 bool checksum_verified) {
    return load_recoil_file_impl(bytes, keeper, checksum_verified);
}

u64 serialized_file_size(const RecoilFile& f) {
    u64 n = 4 + 4;  // magic; version/sym_width/indexed/prob_bits
    if (f.is_indexed()) {
        const auto& p = std::get<RecoilFile::IndexedPayload>(f.model);
        n += 4;
        for (const auto& freq : p.freqs) n += 4 + 4 * freq.size();
        n += 8 + p.ids.size();
    } else {
        n += 4 + 4 * std::get<RecoilFile::StaticPayload>(f.model).freq.size();
    }
    n += 8 + serialize_metadata(f.metadata).size();
    n += 8;  // unit count
    n += wire::unit_pad_size(n);
    n += f.units.size() * 2;
    return n + 8;  // checksum
}

std::vector<u8> serve_combined(const RecoilFile& f, u32 target_splits) {
    return save_recoil_file(f, combine_splits(f.metadata, target_splits));
}

template <typename Model>
RecoilFile make_recoil_file(const RecoilEncoded<Rans32, 32>& enc, const Model& model,
                            u8 sym_width) {
    static_assert(std::is_same_v<Model, StaticModel>,
                  "indexed models carry external pdfs; assemble RecoilFile "
                  "with IndexedPayload manually");
    RecoilFile f;
    f.sym_width = sym_width;
    f.prob_bits = model.prob_bits();
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    RecoilFile::StaticPayload p;
    p.freq.resize(model.alphabet());
    for (u32 s = 0; s < model.alphabet(); ++s) p.freq[s] = model.freq(s);
    f.model = std::move(p);
    return f;
}

template RecoilFile make_recoil_file<StaticModel>(const RecoilEncoded<Rans32, 32>&,
                                                  const StaticModel&, u8);

namespace {
constexpr char kConvMagic[4] = {'C', 'N', 'V', '1'};
/// 2: CRC32C trailer. Version 1 (FNV-1a trailer) is refused.
constexpr u8 kConvVersion = 2;
}  // namespace

std::vector<u8> save_conventional_file(const ConventionalFile& f) {
    std::vector<u8> out;
    out.insert(out.end(), kConvMagic, kConvMagic + 4);
    out.push_back(kConvVersion);
    out.push_back(f.sym_width);
    out.push_back(static_cast<u8>(f.prob_bits));
    out.push_back(0);
    put_freq_table(out, f.freq);
    put_u64(out, f.payload.num_symbols);
    put_u64(out, f.payload.partitions.size());
    for (const auto& p : f.payload.partitions) {
        put_u64(out, p.sym_begin);
        put_u64(out, p.sym_count);
        put_u64(out, p.unit_begin);
        put_u64(out, p.unit_count);
        for (u32 s : p.final_states) put_u32(out, s);
    }
    put_u64(out, f.payload.units.size());
    const auto* ub = reinterpret_cast<const u8*>(f.payload.units.data());
    out.insert(out.end(), ub, ub + f.payload.units.size() * 2);
    append_checksum(out);
    return out;
}

ConventionalFile load_conventional_file(std::span<const u8> bytes) {
    Cursor c{checked_payload(bytes, "conventional container"),
             "conventional container"};
    if (std::memcmp(c.get_bytes(4).data(), kConvMagic, 4) != 0)
        raise("conventional container: bad magic");
    if (c.get_u8() != kConvVersion)
        raise("conventional container: unsupported version");
    ConventionalFile f;
    f.sym_width = c.get_u8();
    if (f.sym_width != 1 && f.sym_width != 2)
        raise("conventional container: bad symbol width");
    f.prob_bits = c.get_u8();
    if (f.prob_bits < 1 || f.prob_bits > 16)
        raise("conventional container: bad prob_bits");
    (void)c.get_u8();
    f.freq = get_freq_table(c, f.prob_bits);
    f.payload.num_symbols = c.get_u64();
    const u64 parts = c.get_u64();
    if (parts == 0 || parts > (u64{1} << 24))
        raise("conventional container: bad partition count");
    f.payload.partitions.resize(parts);
    u64 covered = 0;
    u64 units_covered = 0;
    for (auto& p : f.payload.partitions) {
        p.sym_begin = c.get_u64();
        p.sym_count = c.get_u64();
        p.unit_begin = c.get_u64();
        p.unit_count = c.get_u64();
        if (p.sym_begin != covered || p.unit_begin != units_covered)
            raise("conventional container: partitions not contiguous");
        covered += p.sym_count;
        units_covered += p.unit_count;
        for (auto& s : p.final_states) s = c.get_u32();
    }
    if (covered != f.payload.num_symbols)
        raise("conventional container: partitions do not cover the stream");
    const u64 unit_count = c.get_u64();
    if (unit_count != units_covered)
        raise("conventional container: unit count mismatch");
    auto units = c.get_unit_bytes(unit_count);
    f.payload.units.resize(unit_count);
    std::memcpy(f.payload.units.data(), units.data(), unit_count * 2);
    return f;
}

}  // namespace recoil::format
