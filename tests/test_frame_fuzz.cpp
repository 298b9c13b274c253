// Seeded frame mutation: v1 request and response frames and v2 header,
// body and FIN frames are bit-flipped, truncated, grown by inserted bytes
// and given edited length fields — half of them resealed with a valid CRC32C
// so the structural checks, not the checksum, must catch them. Every input
// must end in a typed ProtocolError, or parse to a value that re-encodes to
// exactly the input. Built into the sanitizer jobs like every test, so a
// parser that reads out of bounds or overflows fails there.

#include <gtest/gtest.h>

#include "serve/protocol.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"

namespace recoil::serve {
namespace {

constexpr int kMutationsPerFrame = 4000;

std::vector<u8> pattern(std::size_t n, u8 seed) {
    std::vector<u8> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<u8>(i * 37 + seed);
    return v;
}

/// Offsets of a frame's length fields (the ones an attacker edits to make
/// a parser trust a size the frame does not have).
struct Target {
    const char* name;
    std::vector<u8> frame;
    std::vector<std::size_t> length_fields;  ///< offset of each u32/u64 field
    std::vector<std::size_t> widths;
};

std::vector<Target> targets() {
    std::vector<Target> t;
    ServeRequest req;
    req.asset = "tenant/asset-7";
    req.parallelism = 16;
    req.range = {{100, 4100}};
    req.accept = kAcceptAll | kAcceptStreamed;
    req.resume_offset = 77;
    t.push_back({"v1 request", encode_request(req), {12}, {4}});

    ServeResult ok;
    ok.code = ErrorCode::ok;
    ok.payload = PayloadKind::chunked;
    ok.detail = "warm";
    ok.wire = std::make_shared<const std::vector<u8>>(pattern(700, 3));
    ok.stats.splits_served = 9;
    ok.stats.cache_hit = true;
    t.push_back({"v1 ok response", encode_response(ok), {13, 21}, {4, 8}});

    ServeResult err;
    err.code = ErrorCode::unknown_asset;
    err.detail = "serve: unknown asset 'x'";
    t.push_back({"v1 error response", encode_response(err), {13}, {4}});

    StreamHeader h;
    h.code = ErrorCode::ok;
    h.payload = PayloadKind::file;
    h.detail = "hdr";
    h.splits = 4;
    h.wire_bytes = 5000;
    h.max_frame_bytes = 2048;
    t.push_back({"v2 header", encode_stream_header(h), {11, 15, 23, 31}, {4, 8, 8, 4}});

    const auto body = pattern(900, 9);
    t.push_back({"v2 body", encode_stream_body(3, body), {7, 11}, {4, 8}});

    StreamFin fin;
    fin.body_frames = 5;
    fin.splits = 4;
    fin.wire_checksum = 0x1234abcd;
    fin.detail = "fin";
    t.push_back({"v2 FIN", encode_stream_fin(fin), {9, 13, 17, 25}, {4, 4, 8, 4}});
    return t;
}

/// Parse with the frame's own parser; on success return its re-encoding.
std::optional<std::vector<u8>> parse_and_reencode(const Target& t,
                                                  const std::vector<u8>& f) {
    const std::string name = t.name;
    if (name == "v1 request") return encode_request(decode_request(f));
    if (name.starts_with("v1")) return encode_response(decode_response(f));
    const StreamFrame sf = decode_stream_frame(f);
    switch (sf.type) {
        case StreamFrameType::header: return encode_stream_header(sf.header);
        case StreamFrameType::body: return encode_stream_body(sf.seq, sf.payload);
        case StreamFrameType::fin: return encode_stream_fin(sf.fin);
    }
    return std::nullopt;
}

std::vector<u8> mutate(const Target& t, Xoshiro256& rng) {
    std::vector<u8> f = t.frame;
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % std::max<std::size_t>(n, 1));
    };
    switch (rng() % 4) {
        case 0: {  // 1-3 bit flips anywhere
            const int flips = 1 + static_cast<int>(rng() % 3);
            for (int i = 0; i < flips; ++i) f[pick(f.size())] ^= u8(1u << (rng() % 8));
            break;
        }
        case 1:  // truncation, down to nothing
            f.resize(pick(f.size()));
            break;
        case 2: {  // 1-16 inserted bytes
            const std::size_t at = pick(f.size() + 1);
            const std::size_t n = 1 + pick(16);
            std::vector<u8> junk(n);
            for (u8& b : junk) b = static_cast<u8>(rng());
            f.insert(f.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(), junk.end());
            break;
        }
        default: {  // a length field set to an edge or random value
            const std::size_t k = pick(t.length_fields.size());
            const std::size_t off = t.length_fields[k], w = t.widths[k];
            const u64 field_max = w == 8 ? ~u64{0} : u64{0xFFFFFFFF};
            u64 old = 0;
            for (std::size_t i = 0; i < w; ++i) old |= u64{f[off + i]} << (8 * i);
            const u64 choices[] = {0, 1, old - 1, old + 1, field_max, field_max / 2,
                                   u64{f.size()}, rng() & field_max};
            const u64 v = choices[rng() % std::size(choices)];
            for (std::size_t i = 0; i < w; ++i) f[off + i] = static_cast<u8>(v >> (8 * i));
            break;
        }
    }
    if (rng() % 2 == 0 && f.size() >= 8) f = test::reseal(std::move(f));
    return f;
}

TEST(FrameFuzz, MutatedFramesAreTypedErrorsOrReencodeIdentically) {
    Xoshiro256 rng(0xF2A3E);
    for (const Target& t : targets()) {
        // The unmutated frame is the fixed point the invariant is built on.
        ASSERT_EQ(parse_and_reencode(t, t.frame), t.frame) << t.name;
        std::size_t rejected = 0, accepted = 0;
        for (int i = 0; i < kMutationsPerFrame; ++i) {
            const std::vector<u8> f = mutate(t, rng);
            try {
                const auto again = parse_and_reencode(t, f);
                ASSERT_TRUE(again.has_value()) << t.name;
                ASSERT_EQ(*again, f) << t.name << ": mutation " << i
                                     << " parsed but does not re-encode to itself";
                ++accepted;
            } catch (const ProtocolError& e) {
                ASSERT_NE(e.code(), ErrorCode::ok) << t.name;
                ++rejected;
            }
        }
        EXPECT_GT(rejected, kMutationsPerFrame / 2u) << t.name;
        (void)accepted;
    }
}

TEST(FrameFuzz, ReassemblyOfAMutatedStreamIsTypedOrComplete) {
    // One mutated frame anywhere in an otherwise valid stream: reassembly
    // must throw a typed error or finish; it never crashes or hangs.
    const auto wire = pattern(5000, 1);
    StreamHeader h;
    h.code = ErrorCode::ok;
    h.payload = PayloadKind::file;
    h.wire_bytes = wire.size();
    h.max_frame_bytes = 2048;
    std::vector<std::vector<u8>> frames{encode_stream_header(h)};
    const std::span<const u8> all(wire);
    u32 seq = 0;
    for (std::size_t off = 0; off < wire.size(); off += 2048)
        frames.push_back(encode_stream_body(
            seq++, all.subspan(off, std::min<std::size_t>(2048, wire.size() - off))));
    StreamFin fin;
    fin.body_frames = seq;
    fin.wire_checksum = format::crc32c(wire);
    frames.push_back(encode_stream_fin(fin));

    Xoshiro256 rng(77);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t k = rng() % frames.size();
        std::vector<u8> bad = frames[k];
        bad[rng() % bad.size()] ^= u8(1u << (rng() % 8));
        if (rng() % 2 == 0) bad = test::reseal(std::move(bad));
        StreamReassembler ra;
        try {
            bool done = false;
            for (std::size_t j = 0; j < frames.size() && !done; ++j)
                done = ra.feed(j == k ? bad : frames[j]);
            if (done && ra.header().code == ErrorCode::ok)
                EXPECT_EQ(*ra.result().wire, wire) << "iteration " << i;
        } catch (const ProtocolError& e) {
            EXPECT_NE(e.code(), ErrorCode::ok);
        }
    }
}

}  // namespace
}  // namespace recoil::serve
