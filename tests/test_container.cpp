// Container format tests: round-trip, the §3.3 serving path, failure
// injection (bit flips anywhere must be detected by the checksum), the
// CRC32C integrity primitive, refusal of pre-CRC format versions, and
// parse-time refusal of indexed payloads a decoder cannot read safely.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "conventional/conventional.hpp"
#include "core/recoil_decoder.hpp"
#include "format/container.hpp"
#include "format/crc32c.hpp"
#include "serve/server.hpp"
#include "stream/chunked.hpp"
#include "util/cpu.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil {
namespace {

format::RecoilFile make_file(std::size_t n, u32 max_splits) {
    auto syms = test::geometric_symbols<u8>(n, 0.6, 256, n + max_splits);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, max_splits);
    return format::make_recoil_file(enc, m, 1);
}

TEST(Container, SaveLoadRoundTrip) {
    auto f = make_file(100000, 32);
    auto bytes = format::save_recoil_file(f);
    auto g = format::load_recoil_file(bytes);
    EXPECT_EQ(g.sym_width, f.sym_width);
    EXPECT_EQ(g.prob_bits, f.prob_bits);
    EXPECT_EQ(g.units, f.units);
    EXPECT_EQ(g.metadata.num_symbols, f.metadata.num_symbols);
    EXPECT_EQ(g.metadata.splits.size(), f.metadata.splits.size());
}

TEST(Container, DecodeAfterLoad) {
    auto syms = test::geometric_symbols<u8>(150000, 0.5, 256, 61);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 16);
    auto bytes = format::save_recoil_file(format::make_recoil_file(enc, m, 1));
    auto f = format::load_recoil_file(bytes);
    auto model = f.build_static_model();
    auto dec = recoil_decode<Rans32, 32, u8>(std::span<const u16>(f.units),
                                             f.metadata, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, ServeCombinedShrinksAndDecodes) {
    auto syms = test::geometric_symbols<u8>(400000, 0.6, 256, 62);
    auto m = test::model_for<u8>(syms, 11, 256);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(syms), m, 256);
    auto f = format::make_recoil_file(enc, m, 1);
    auto large = format::save_recoil_file(f);
    auto small = format::serve_combined(f, 8);
    EXPECT_LT(small.size(), large.size());
    auto g = format::load_recoil_file(small);
    EXPECT_LE(g.metadata.num_splits(), 8u);
    auto model = g.build_static_model();
    auto dec = recoil_decode<Rans32, 32, u8>(std::span<const u16>(g.units),
                                             g.metadata, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, IndexedModelRoundTrip) {
    auto ds = workload::gen_latents("t", 60000, 2.0, 63);
    auto models = ds.build_models(16);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(ds.symbols), models, 16);

    format::RecoilFile f;
    f.sym_width = 2;
    f.prob_bits = 16;
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    // Serialize the generating pdfs (what a real hyperprior decoder would
    // reconstruct from side information).
    format::RecoilFile::IndexedPayload payload;
    for (double sigma : ds.bin_sigma) {
        std::vector<u64> counts(workload::kLatentAlphabet);
        const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
        for (u32 s = 0; s < workload::kLatentAlphabet; ++s) {
            const double r =
                static_cast<double>(static_cast<i32>(s) - workload::kLatentOffset);
            counts[s] = 1 + static_cast<u64>(std::exp(-r * r * inv2s2) * 1e12);
        }
        payload.freqs.push_back(quantize_pdf(counts, 16));
    }
    payload.ids = ds.ids;
    f.model = std::move(payload);

    auto bytes = format::save_recoil_file(f);
    auto g = format::load_recoil_file(bytes);
    ASSERT_TRUE(g.is_indexed());
    auto set = g.build_indexed_model();
    auto dec = recoil_decode<Rans32, 32, u16>(std::span<const u16>(g.units),
                                              g.metadata, set.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), ds.symbols.begin()));
}

TEST(Container, BitFlipsDetected) {
    auto f = make_file(50000, 8);
    auto bytes = format::save_recoil_file(f);
    Xoshiro256 rng(64);
    for (int iter = 0; iter < 40; ++iter) {
        auto bad = bytes;
        const u64 pos = rng.below(bad.size());
        bad[pos] ^= static_cast<u8>(1u << rng.below(8));
        EXPECT_THROW(format::load_recoil_file(bad), Error) << "pos " << pos;
    }
}

TEST(Container, TruncationDetected) {
    auto f = make_file(50000, 8);
    auto bytes = format::save_recoil_file(f);
    for (std::size_t keep : {std::size_t{0}, std::size_t{10}, bytes.size() / 2,
                             bytes.size() - 1}) {
        std::vector<u8> t(bytes.begin(), bytes.begin() + keep);
        EXPECT_THROW(format::load_recoil_file(t), Error) << keep;
    }
}

TEST(Container, ConventionalFileRoundTrip) {
    auto syms = test::geometric_symbols<u8>(120000, 0.6, 256, 70);
    auto m = test::model_for<u8>(syms, 11, 256);
    format::ConventionalFile f;
    f.sym_width = 1;
    f.prob_bits = 11;
    f.freq.resize(256);
    for (u32 s = 0; s < 256; ++s) f.freq[s] = m.freq(s);
    f.payload = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 24);

    auto bytes = format::save_conventional_file(f);
    auto g = format::load_conventional_file(bytes);
    EXPECT_EQ(g.payload.partitions.size(), f.payload.partitions.size());
    StaticModel model(std::span<const u32>(g.freq), g.prob_bits, 0);
    auto dec = conventional_decode<Rans32, 32, u8>(g.payload, model.tables());
    EXPECT_TRUE(std::equal(dec.begin(), dec.end(), syms.begin()));
}

TEST(Container, ConventionalFileCorruptionDetected) {
    auto syms = test::geometric_symbols<u8>(40000, 0.5, 256, 71);
    auto m = test::model_for<u8>(syms, 11, 256);
    format::ConventionalFile f;
    f.sym_width = 1;
    f.prob_bits = 11;
    f.freq.resize(256);
    for (u32 s = 0; s < 256; ++s) f.freq[s] = m.freq(s);
    f.payload = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 8);
    auto bytes = format::save_conventional_file(f);
    Xoshiro256 rng(72);
    for (int iter = 0; iter < 20; ++iter) {
        auto bad = bytes;
        bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
        EXPECT_THROW(format::load_conventional_file(bad), Error);
    }
}

TEST(Container, ChecksumIsFnv1a) {
    std::vector<u8> empty;
    EXPECT_EQ(format::fnv1a(empty), 0xcbf29ce484222325ull);
    std::vector<u8> a{'a'};
    EXPECT_EQ(format::fnv1a(a), 0xaf63dc4c8601ec8cull);
}

std::vector<u8> bytes_of(const char* s) {
    return std::vector<u8>(s, s + std::strlen(s));
}

TEST(Checksum, Crc32cKnownAnswers) {
    // RFC 3720 §B.4 check vectors.
    const auto digits = bytes_of("123456789");
    const std::vector<u8> zeros(32, 0x00);
    const std::vector<u8> ones(32, 0xFF);
    EXPECT_EQ(format::crc32c(digits), 0xE3069283u);
    EXPECT_EQ(format::crc32c(zeros), 0x8A9136AAu);
    EXPECT_EQ(format::crc32c(ones), 0x62A8AB43u);
    EXPECT_EQ(format::crc32c({}), 0u);
    EXPECT_EQ(format::detail::crc32c_table(digits, 0), 0xE3069283u);
    EXPECT_EQ(format::detail::crc32c_table(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(format::detail::crc32c_table(ones, 0), 0x62A8AB43u);
    if (!cpu_features().sse42) GTEST_SKIP() << "no SSE4.2: table kernel only";
    EXPECT_EQ(format::detail::crc32c_hw(digits, 0), 0xE3069283u);
    EXPECT_EQ(format::detail::crc32c_hw(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(format::detail::crc32c_hw(ones, 0), 0x62A8AB43u);
}

TEST(Checksum, HardwareKernelMatchesTableKernel) {
    if (!cpu_features().sse42) GTEST_SKIP() << "no SSE4.2: table kernel only";
    Xoshiro256 rng(1993);
    std::vector<u8> buf(1 << 20);
    for (auto& b : buf) b = static_cast<u8>(rng.below(256));
    const std::span<const u8> all(buf);
    // Every length 0..256 at every start offset 0..7 covers each head and
    // tail shape of the 8-byte word loop; a nonzero state checks chaining.
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t len = 0; len <= 256; ++len)
            for (const u32 state : {0u, 0xDEADBEEFu})
                ASSERT_EQ(format::detail::crc32c_hw(all.subspan(off, len), state),
                          format::detail::crc32c_table(all.subspan(off, len),
                                                       state))
                    << "offset " << off << " length " << len;
    EXPECT_EQ(format::detail::crc32c_hw(all, 0),
              format::detail::crc32c_table(all, 0));
}

TEST(Checksum, IncrementalEqualsOnePassAtEverySplit) {
    Xoshiro256 rng(3720);
    std::vector<u8> buf(300);
    for (auto& b : buf) b = static_cast<u8>(rng.below(256));
    const std::span<const u8> all(buf);
    const u32 whole = format::crc32c(all);
    for (std::size_t k = 0; k <= buf.size(); ++k) {
        const u32 a = format::crc32c(all.first(k));
        EXPECT_EQ(format::crc32c(all.subspan(k), a), whole) << "split " << k;
        EXPECT_EQ(format::detail::crc32c_table(all.subspan(k), a), whole)
            << "split " << k;
    }
}

TEST(Checksum, InterleavedKernelMatchesTableAtBlockBoundaries) {
    // The hardware kernel hashes three chains per round and merges them; a
    // wrong merge constant or an off-by-one round boundary shows only at
    // lengths around multiples of 3 × block.
    if (!cpu_features().sse42) GTEST_SKIP() << "no SSE4.2: table kernel only";
    Xoshiro256 rng(2026);
    std::vector<u8> buf(6 * format::detail::kCrc32cLongBlock + 16);
    for (auto& b : buf) b = static_cast<u8>(rng.below(256));
    const std::span<const u8> all(buf);
    for (const std::size_t block : {format::detail::kCrc32cShortBlock,
                                    format::detail::kCrc32cLongBlock}) {
        const std::size_t r = 3 * block;
        for (const std::size_t len : {r - 1, r, r + 1, r + 7, 2 * r - 1, 2 * r + 1})
            for (std::size_t off = 0; off < 8; ++off)
                for (const u32 state : {0u, 0xDEADBEEFu})
                    ASSERT_EQ(format::detail::crc32c_hw(all.subspan(off, len), state),
                              format::detail::crc32c_table(all.subspan(off, len), state))
                        << "block " << block << " offset " << off << " length " << len;
    }
}

TEST(Checksum, CombineEqualsConcatenation) {
    Xoshiro256 rng(41);
    std::vector<u8> buf(3 * format::detail::kCrc32cLongBlock + 333);
    for (auto& b : buf) b = static_cast<u8>(rng.below(256));
    const std::span<const u8> all(buf);
    std::vector<std::size_t> splits{0, 1, 4, 5, buf.size() - 5, buf.size() - 1, buf.size()};
    for (int i = 0; i < 64; ++i) splits.push_back(rng.below(buf.size() + 1));
    for (const std::size_t k : splits) {
        const std::size_t len = buf.size() - k;
        const u32 a = format::crc32c(all.first(k));
        const u32 b = format::crc32c(all.subspan(k));
        const u32 whole = format::crc32c(all);
        EXPECT_EQ(format::crc32c_combine(a, b, len), whole) << "split " << k;
    }
    // An empty b leaves a unchanged.
    EXPECT_EQ(format::crc32c_combine(0x12345678u, 0, 0), 0x12345678u);
    // Lengths far beyond the buffer: zero runs, against the incremental API.
    for (const u64 zeros : {u64{31}, u64{4096}, u64{1} << 20}) {
        const std::vector<u8> z(zeros, 0);
        const u32 a = format::crc32c(all.first(100));
        EXPECT_EQ(format::crc32c_combine(a, format::crc32c(z), zeros),
                  format::crc32c(z, a))
            << zeros << " zero bytes";
    }
}

TEST(Checksum, WireCrcFromTrailerEqualsFullHash) {
    // Every wire the server caches ends in its own CRC32C trailer, so its
    // CRC is read off the last 8 bytes. Hold that against a full hash for
    // every payload kind, and check served results carry the same value.
    serve::ContentServer server;
    const auto data = test::geometric_symbols<u8>(40'000, 0.6, 256, 5);
    server.store().encode_bytes("file", data, 16);
    stream::ChunkedEncoder enc({11, 8});
    for (std::size_t off = 0; off < data.size(); off += 10'000)
        enc.add_chunk(std::span<const u8>(data).subspan(off, 10'000));
    server.store().add_chunked("chunked", enc.finish());
    const serve::ServeRequest requests[] = {
        {"file", 4, {}}, {"file", 16, {}}, {"chunked", 2, {}}, {"file", 1, {{100, 9000}}}};
    for (const auto& req : requests) {
        for (int pass = 0; pass < 2; ++pass) {  // the miss, then the cache hit
            const serve::ServeResult res = server.serve(req);
            ASSERT_TRUE(res.ok()) << res.detail;
            const u32 full = format::crc32c(*res.wire);
            EXPECT_EQ(format::wire::sealed_wire_crc(*res.wire), full)
                << serve::payload_name(res.payload);
            ASSERT_TRUE(res.wire_crc.has_value());
            EXPECT_EQ(*res.wire_crc, full) << serve::payload_name(res.payload);
        }
    }
    const auto saved = format::save_recoil_file(make_file(5000, 4));
    EXPECT_EQ(format::wire::sealed_wire_crc(saved), format::crc32c(saved));

    // Metrics bodies have no trailer: they are hashed directly, and the
    // frame's trailer, combined from that CRC, passes the decoder's check.
    serve::ServeRequest scrape;
    scrape.asset = serve::kMetricsAssetText;
    scrape.accept = serve::kAcceptAll | serve::kAcceptMetrics;
    const auto metrics =
        serve::decode_response(server.serve_frame(serve::encode_request(scrape)));
    ASSERT_TRUE(metrics.ok()) << metrics.detail;
    EXPECT_EQ(metrics.payload, serve::PayloadKind::metrics);
}

TEST(Checksum, TrailerWithHighBitsSetIsAMismatch) {
    // Trailers are 8 bytes holding the zero-extended CRC: a trailer whose
    // low half matches but whose high half is nonzero must not verify.
    auto frame = serve::encode_request(serve::ServeRequest{"asset", 4, {}});
    frame[frame.size() - 1] ^= 0x01;  // a high-32 bit of the u64 LE trailer
    try {
        serve::decode_request(frame);
        FAIL() << "trailer with nonzero high bits accepted";
    } catch (const serve::ProtocolError& e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::checksum_mismatch);
    }

    auto file = format::save_recoil_file(make_file(5000, 4));
    file[file.size() - 3] ^= 0x80;
    EXPECT_THROW(format::load_recoil_file(file), Error);
}

/// Expect `parse` to refuse `bytes` with an error whose message names `what`.
template <typename Parse>
void expect_refused(const std::vector<u8>& bytes, Parse&& parse,
                    const std::string& what) {
    try {
        parse(bytes);
        FAIL() << "accepted; expected '" << what << "'";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(Container, PreCrcVersionsAreRefused) {
    // Versions 1 and 2 carried FNV-1a trailers. Resealed with CRC32C so the
    // checksum holds, the version byte is what must refuse them.
    const auto good = format::save_recoil_file(make_file(5000, 4));
    ASSERT_EQ(good[4], 3);
    for (const u8 v : {u8{1}, u8{2}}) {
        auto old = good;
        old[4] = v;
        expect_refused(test::reseal(std::move(old)),
                       [](const std::vector<u8>& b) { format::load_recoil_file(b); },
                       "unsupported version");
    }

    auto syms = test::geometric_symbols<u8>(5000, 0.6, 256, 5);
    auto m = test::model_for<u8>(syms, 11, 256);
    format::ConventionalFile cf;
    cf.sym_width = 1;
    cf.prob_bits = 11;
    cf.freq.resize(256);
    for (u32 s = 0; s < 256; ++s) cf.freq[s] = m.freq(s);
    cf.payload = conventional_encode<Rans32, 32>(std::span<const u8>(syms), m, 2);
    auto conv = format::save_conventional_file(cf);
    ASSERT_EQ(conv[4], 2);
    conv[4] = 1;
    expect_refused(test::reseal(std::move(conv)),
                   [](const std::vector<u8>& b) { format::load_conventional_file(b); },
                   "unsupported version");
}

}  // namespace
}  // namespace recoil

namespace recoil {
namespace {

/// A small indexed container: two pdfs over a 64-symbol alphabet, the model
/// id alternating per symbol.
format::RecoilFile make_indexed_file(std::size_t n) {
    auto syms = test::geometric_symbols<u16>(n, 0.6, 64, 9);
    std::vector<u8> ids(n);
    std::vector<u64> c0(64, 1), c1(64, 1);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<u8>(i % 2);
        ++(ids[i] == 0 ? c0 : c1)[syms[i]];
    }
    std::vector<StaticModel> models{StaticModel(c0, 12), StaticModel(c1, 12)};
    format::RecoilFile::IndexedPayload payload;
    for (const StaticModel& m : models)
        payload.freqs.emplace_back(m.pdf().begin(), m.pdf().end());
    payload.ids = ids;
    IndexedModelSet set(std::move(models), ids);
    auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(syms), set, 4);

    format::RecoilFile f;
    f.sym_width = 2;
    f.prob_bits = 12;
    f.metadata = enc.metadata;
    f.units = enc.bitstream.units;
    f.model = std::move(payload);
    return f;
}

/// Both parse modes: owned, and view with the bytes kept by a shared vector.
void expect_both_loads_refuse(std::vector<u8> bytes, const std::string& what) {
    expect_refused(bytes, [](const std::vector<u8>& b) { format::load_recoil_file(b); },
                   what);
    auto kept = std::make_shared<const std::vector<u8>>(std::move(bytes));
    expect_refused(*kept,
                   [&](const std::vector<u8>& b) {
                       format::load_recoil_file_view(b, kept);
                   },
                   what);
}

TEST(Container, ShortIdStreamRefused) {
    // The decoder reads one id per symbol with no bound of its own, so an id
    // stream shorter than the symbol stream must not get past the parser.
    auto f = make_indexed_file(4096);
    const auto good = format::save_recoil_file(f);
    auto g = format::load_recoil_file(good);
    const auto set = g.build_indexed_model();
    const auto dec = recoil_decode<Rans32, 32, u16>(std::span<const u16>(g.units),
                                                    g.metadata, set.tables());
    ASSERT_EQ(dec.size(), 4096u);

    auto& payload = std::get<format::RecoilFile::IndexedPayload>(f.model);
    const format::ByteBuffer ids = payload.ids;
    for (const std::size_t len : {std::size_t{0}, std::size_t{16}, std::size_t{4095}}) {
        payload.ids = ids.slice(0, len);
        expect_both_loads_refuse(format::save_recoil_file(f),
                                 "id stream shorter than the symbol stream");
    }
}

TEST(Container, MixedAlphabetRefused) {
    auto f = make_indexed_file(4096);
    auto& payload = std::get<format::RecoilFile::IndexedPayload>(f.model);
    payload.freqs[1].push_back(0);  // still sums to 2^12, one symbol longer
    expect_both_loads_refuse(format::save_recoil_file(f), "model alphabets differ");
}

}  // namespace
}  // namespace recoil
