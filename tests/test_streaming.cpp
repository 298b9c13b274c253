// Tests for the streaming serve pipeline: the pull-based WireSink/WireSource
// path from asset to v2 frame. Bit-exactness is the anchor — for every asset
// kind (static file, indexed file, chunked) and for both full-asset and
// range requests, concatenating all streamed body frames must yield exactly
// the bytes of the v1 materialized response. On top of that: hostile
// mid-stream frames surface as typed errors, unload()/evict() mid-stream
// never invalidates in-flight segments (the stream pins its buffers),
// streaming leaders coalesce both materialized and streamed followers, the
// stale-put gate holds for streams, a solo stream's owned memory stays at
// the structural sections, not the wire, and ten thousand live streams cost
// no threads.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "serve/server.hpp"
#include "serve/store.hpp"
#include "test_util.hpp"

#if defined(__SANITIZE_THREAD__)
#define RECOIL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RECOIL_TSAN 1
#endif
#endif

namespace recoil::serve {
namespace {

constexpr u8 kAcceptStream = kAcceptAll | kAcceptStreamed;

std::vector<std::vector<u8>> collect_frames(ServeStream stream) {
    std::vector<std::vector<u8>> frames;
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));
    return frames;
}

ServeResult reassemble(const std::vector<std::vector<u8>>& frames,
                       u64 max_frame_bytes = kNoFrameLimit) {
    StreamReassembler ra(max_frame_bytes);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const bool done = ra.feed(frames[i]);
        EXPECT_EQ(done, i + 1 == frames.size()) << "frame " << i;
    }
    return ra.result();
}

using test::reseal;  // recompute the CRC32C trailer, as an attacker can

format::RecoilFile indexed_file(std::span<const u8> syms, u32 max_splits) {
    std::vector<u8> ids(syms.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<u8>((i / 7) % 2);
    std::vector<u64> c0(256, 1), c1(256, 1);
    for (std::size_t i = 0; i < syms.size(); ++i)
        (ids[i] == 0 ? c0 : c1)[syms[i]]++;
    std::vector<StaticModel> models{StaticModel(c0, 11), StaticModel(c1, 11)};
    format::RecoilFile f;
    f.sym_width = 1;
    f.prob_bits = 11;
    format::RecoilFile::IndexedPayload p;
    for (const StaticModel& m : models) {
        std::vector<u32> freq(m.alphabet());
        for (u32 s = 0; s < m.alphabet(); ++s) freq[s] = m.freq(s);
        p.freqs.push_back(std::move(freq));
    }
    p.ids = ids;
    IndexedModelSet set(std::move(models), ids);
    auto enc = recoil_encode<Rans32, 32>(syms, set, max_splits);
    f.metadata = std::move(enc.metadata);
    f.units = std::move(enc.bitstream.units);
    f.model = std::move(p);
    return f;
}

/// One asset of every kind over the same symbol stream.
struct StreamingFixture : ::testing::Test {
    static constexpr u64 kN = 60000;
    std::vector<u8> data;
    /// Runs at the start of every miss combine (ServerOptions::combine_hook);
    /// set it before the requests it should see start.
    std::function<void(const std::string&)> on_combine;
    ContentServer server;

    static ServerOptions hooked(StreamingFixture* self) {
        ServerOptions opt;
        opt.combine_hook = [self](const std::string& key) {
            if (self->on_combine) self->on_combine(key);
        };
        return opt;
    }

    StreamingFixture()
        : data(test::geometric_symbols<u8>(kN, 0.55, 256, 11)),
          server(hooked(this)) {
        server.store().encode_bytes("static", data, 16);
        server.store().add_file("indexed", indexed_file(data, 16));
        stream::ChunkedEncoder enc({11, 8});
        for (u64 off = 0; off < kN; off += kN / 4)
            enc.add_chunk(std::span<const u8>(data).subspan(off, kN / 4));
        server.store().add_chunked("chunked", enc.finish());
    }
};

TEST_F(StreamingFixture, StreamedBytesAreBitExactWithV1ForEveryKindAndShape) {
    // Small frames force many body frames; the reassembly must still equal
    // the single materialized wire byte for byte.
    for (const u64 frame : {u64{4096}, u64{1024}}) {
        StreamOptions opt;
        opt.max_frame_bytes = frame;
        for (const char* name : {"static", "indexed", "chunked"}) {
            for (const bool ranged : {false, true}) {
                ServeRequest req{name, 8, std::nullopt, kAcceptStream};
                if (ranged) req.range = {{kN / 3, kN / 3 + 9000}};
                server.cache().clear();
                const ServeResult ref = server.serve(req);
                ASSERT_TRUE(ref.ok()) << name << ": " << ref.detail;

                server.cache().clear();
                auto frames = collect_frames(server.serve_stream(req, opt));
                ASSERT_GE(frames.size(), 3u) << name;  // header + bodies + FIN
                const ServeResult got = reassemble(frames, opt.max_frame_bytes);
                ASSERT_TRUE(got.ok()) << name << ": " << got.detail;
                EXPECT_EQ(got.payload, ref.payload) << name;
                EXPECT_EQ(got.stats.splits_served, ref.stats.splits_served) << name;
                ASSERT_NE(got.wire, nullptr);
                EXPECT_EQ(*got.wire, *ref.wire)
                    << name << (ranged ? " range" : " full")
                    << ": streamed reassembly diverges from the v1 wire";
            }
        }
    }
}

TEST_F(StreamingFixture, AdaptiveFramingShipsTheMetadataPrefixInSmallFrames) {
    // Adaptive sizing: the metadata-dense structural prefix (header, model,
    // split plan — owned pieces) rides in frames capped at
    // prefix_frame_bytes, so a client can start planning its decode before
    // the payload arrives; payload frames then run at max_frame_bytes. The
    // reassembled wire is bit-exact either way — framing never changes
    // bytes, only their grouping.
    for (const char* name : {"static", "chunked"}) {
        const ServeRequest req{name, 8, std::nullopt, kAcceptStream};
        server.cache().clear();
        const ServeResult ref = server.serve(req);
        ASSERT_TRUE(ref.ok()) << ref.detail;

        StreamOptions adaptive;
        adaptive.max_frame_bytes = 64 * 1024;
        adaptive.prefix_frame_bytes = 1024;
        adaptive.use_cache = false;  // force a producer-backed cold stream
        server.cache().clear();
        auto frames = collect_frames(server.serve_stream(req, adaptive));

        std::vector<u64> body_sizes;
        for (const auto& f : frames) {
            const StreamFrame parsed =
                decode_stream_frame(f, adaptive.max_frame_bytes);
            if (parsed.type == StreamFrameType::body)
                body_sizes.push_back(parsed.payload.size());
        }
        ASSERT_GE(body_sizes.size(), 2u) << name;
        // The first frame is a small prefix frame; some later frame carries
        // payload well past the prefix cap.
        EXPECT_LE(body_sizes.front(), adaptive.prefix_frame_bytes) << name;
        EXPECT_GT(*std::max_element(body_sizes.begin(), body_sizes.end()),
                  adaptive.prefix_frame_bytes)
            << name << ": no frame ever outgrew the prefix cap";
        EXPECT_EQ(*reassemble(frames, adaptive.max_frame_bytes).wire,
                  *ref.wire)
            << name;

        // A prefix ceiling equal to max_frame_bytes: frames pack metadata
        // at full size. The wire is identical regardless of framing.
        StreamOptions uniform = adaptive;
        uniform.prefix_frame_bytes = uniform.max_frame_bytes;
        server.cache().clear();
        auto uframes = collect_frames(server.serve_stream(req, uniform));
        EXPECT_EQ(*reassemble(uframes, uniform.max_frame_bytes).wire,
                  *ref.wire)
            << name;
    }
}

TEST_F(StreamingFixture, WarmStreamsReplayTheCacheEntry) {
    const ServeRequest req{"static", 8, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);  // populates the cache
    auto stream = server.serve_stream(req);
    EXPECT_TRUE(stream.head().stats.cache_hit);
    EXPECT_EQ(stream.head().stats.wire_bytes, ref.wire->size());
    const ServeResult got = reassemble(collect_frames(std::move(stream)));
    EXPECT_EQ(*got.wire, *ref.wire);
    EXPECT_TRUE(got.stats.cache_hit);
}

TEST_F(StreamingFixture, ResumedStreamReassemblesBitExactWithServe) {
    // In-process resume: a client holding a half-fed reassembler re-requests
    // with ServeRequest::resume_offset and gets only the tail; the reunited
    // wire equals serve()'s byte for byte. Solo streams seek through the
    // producer's pieces; cached ones lead a combine, then replay the entry.
    for (const char* name : {"static", "indexed", "chunked"}) {
        for (const bool use_cache : {false, true}) {
            const ServeRequest req{name, 8, std::nullopt, kAcceptStream};
            server.cache().clear();
            const ServeResult ref = server.serve(req);
            ASSERT_TRUE(ref.ok()) << name << ": " << ref.detail;
            server.cache().clear();

            StreamOptions opt;
            opt.max_frame_bytes = 4096;
            opt.use_cache = use_cache;
            StreamReassembler client(opt.max_frame_bytes);
            auto first = server.serve_stream(req, opt);
            for (int i = 0; i < 4; ++i) {  // header + 3 bodies, then a drop
                auto f = first.next_frame();
                ASSERT_TRUE(f.has_value()) << name;
                ASSERT_FALSE(client.feed(*f)) << name;
            }
            ASSERT_TRUE(client.resumable()) << name;
            ServeRequest again = req;
            again.resume_offset = client.bytes_received();
            client.begin_resume();

            auto tail = server.serve_stream(again, opt);
            ASSERT_TRUE(tail.head().ok()) << name << ": " << tail.head().detail;
            EXPECT_EQ(tail.head().stats.wire_bytes, ref.wire->size()) << name;
            bool done = false;
            while (auto f = tail.next_frame()) done = client.feed(*f);
            ASSERT_TRUE(done) << name;
            const ServeResult got = client.result();
            ASSERT_TRUE(got.ok()) << name << ": " << got.detail;
            EXPECT_EQ(*got.wire, *ref.wire)
                << name << (use_cache ? " cached" : " solo")
                << ": resumed reassembly diverges from serve()";
        }
    }
}

TEST_F(StreamingFixture, ResumeOffsetAtTheWireEndIsLegalPastItIsTyped) {
    const ServeRequest req{"static", 8, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok()) << ref.detail;
    const u64 wire = ref.wire->size();

    // Offset == wire size: every body byte already arrived; the tail is a
    // header and the FIN, whose whole-wire checksum still validates.
    StreamReassembler client;
    auto first = server.serve_stream(req);
    std::vector<std::vector<u8>> frames = collect_frames(std::move(first));
    for (std::size_t i = 0; i + 1 < frames.size(); ++i) client.feed(frames[i]);
    ASSERT_EQ(client.bytes_received(), wire);
    client.begin_resume();
    ServeRequest at_end = req;
    at_end.resume_offset = wire;
    const auto tail = collect_frames(server.serve_stream(at_end));
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_FALSE(client.feed(tail[0]));
    EXPECT_TRUE(client.feed(tail[1]));
    EXPECT_EQ(*client.result().wire, *ref.wire);

    // Offset past the wire: a single typed invalid_range header.
    const u64 failures = server.totals().failures;
    ServeRequest past = req;
    past.resume_offset = wire + 1;
    const auto refused = collect_frames(server.serve_stream(past));
    ASSERT_EQ(refused.size(), 1u);
    StreamReassembler ra;
    EXPECT_TRUE(ra.feed(refused[0]));
    EXPECT_EQ(ra.result().code, ErrorCode::invalid_range);
    EXPECT_EQ(server.totals().failures, failures + 1);
}

TEST_F(StreamingFixture, ResumeOffsetOnMaterializedServeIsBadRequest) {
    // serve() answers with the whole wire, so it cannot honour a resume
    // offset: a typed bad_request, as decode_request answers for the same
    // request on the wire, never an ok whole wire. serve_stream keeps its
    // seek (the resume tests above).
    for (const char* name : {"static", "indexed", "chunked"}) {
        const u64 failures = server.totals().failures;
        ServeRequest req{name, 4, std::nullopt, kAcceptStream};
        req.resume_offset = 1000;
        const ServeResult res = server.serve(req);
        EXPECT_EQ(res.code, ErrorCode::bad_request) << name;
        EXPECT_EQ(res.wire, nullptr) << name;
        EXPECT_EQ(server.totals().failures, failures + 1) << name;

        ServeRequest v1 = req;
        v1.accept = kAcceptAll;
        EXPECT_EQ(server.serve(v1).code, ErrorCode::bad_request) << name;
    }
}

TEST_F(StreamingFixture, ErrorsAreASingleTypedHeaderFrame) {
    auto missing = collect_frames(
        server.serve_stream({"nope", 1, std::nullopt, kAcceptStream}));
    ASSERT_EQ(missing.size(), 1u);
    StreamReassembler ra;
    EXPECT_TRUE(ra.feed(missing[0]));
    EXPECT_EQ(ra.result().code, ErrorCode::unknown_asset);

    // Negotiation: a client that never accepted the streamed framing.
    auto refused = collect_frames(
        server.serve_stream({"static", 1, std::nullopt, kAcceptAll}));
    ASSERT_EQ(refused.size(), 1u);
    StreamReassembler ra2;
    EXPECT_TRUE(ra2.feed(refused[0]));
    EXPECT_EQ(ra2.result().code, ErrorCode::not_acceptable);

    auto bad_range = collect_frames(server.serve_stream(
        {"static", 1, {{kN, kN + 1}}, kAcceptStream}));
    ASSERT_EQ(bad_range.size(), 1u);
    StreamReassembler ra3;
    EXPECT_TRUE(ra3.feed(bad_range[0]));
    EXPECT_EQ(ra3.result().code, ErrorCode::invalid_range);
}

TEST_F(StreamingFixture, HostileMidStreamFramesAreTypedErrors) {
    StreamOptions opt;
    opt.max_frame_bytes = 4096;
    const auto frames = collect_frames(server.serve_stream(
        {"chunked", 4, std::nullopt, kAcceptStream}, opt));
    ASSERT_GE(frames.size(), 4u);

    // Truncation of any frame at any boundary: typed, never a crash.
    for (std::size_t fi : {std::size_t{0}, std::size_t{1}, frames.size() - 1}) {
        const auto& f = frames[fi];
        for (std::size_t len : {std::size_t{0}, std::size_t{3}, f.size() / 2,
                                f.size() - 1}) {
            std::vector<u8> cut(f.begin(), f.begin() + len);
            try {
                decode_stream_frame(cut);
                FAIL() << "frame " << fi << " truncated to " << len;
            } catch (const ProtocolError& e) {
                EXPECT_TRUE(e.code() == ErrorCode::malformed_frame ||
                            e.code() == ErrorCode::checksum_mismatch);
            }
        }
    }

    // A flipped bit anywhere in a body frame: the frame checksum catches it.
    {
        const auto& body = frames[1];
        for (std::size_t pos = 0; pos < body.size(); pos += 7) {
            std::vector<u8> bad = body;
            bad[pos] ^= 0x20;
            EXPECT_THROW(decode_stream_frame(bad), ProtocolError) << pos;
        }
    }

    // Resealed payload corruption: the per-frame checksum is defeated, so
    // the FIN's whole-wire CRC32C must catch it — typed checksum_mismatch.
    {
        auto bad = frames;
        bad[1][25] ^= 0x01;  // inside the body payload
        bad[1] = reseal(std::move(bad[1]));
        StreamReassembler ra(opt.max_frame_bytes);
        try {
            for (const auto& f : bad) ra.feed(f);
            FAIL() << "resealed mid-stream corruption was accepted";
        } catch (const ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::checksum_mismatch);
        }
    }

    // Reordered / duplicated / dropped body frames: typed malformed_frame.
    {
        StreamReassembler ra;
        ra.feed(frames[0]);
        ra.feed(frames[1]);
        EXPECT_THROW(ra.feed(frames[1]), ProtocolError);  // duplicate seq
    }
    {
        StreamReassembler ra;
        ra.feed(frames[0]);
        EXPECT_THROW(ra.feed(frames[2]), ProtocolError);  // skipped seq
    }
    {
        StreamReassembler ra;
        EXPECT_THROW(ra.feed(frames[1]), ProtocolError);  // body before header
    }
    {
        StreamReassembler ra;
        ra.feed(frames[0]);
        EXPECT_THROW(ra.feed(frames.back()), ProtocolError);  // early FIN
    }
}

TEST(StreamingProtocol, FrameTooLargeIsEnforcedAtBothBoundaries) {
    const std::vector<u8> payload(2048, 0xAB);

    // v2 encode: an oversized body is never produced.
    try {
        encode_stream_body(0, payload, 1024);
        FAIL() << "oversized body frame was encoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    // v2 decode: an oversized frame is rejected against the negotiated max.
    const auto frame = encode_stream_body(0, payload, kNoFrameLimit);
    try {
        decode_stream_frame(frame, 1024);
        FAIL() << "oversized body frame was decoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    EXPECT_NO_THROW(decode_stream_frame(frame, 2048));

    // Header and FIN frames are exempt from the body ceiling: a typed error
    // header with a long detail must come through under a small negotiated
    // max, not be masked as frame_too_large.
    StreamHeader err;
    err.code = ErrorCode::unknown_asset;
    err.detail = std::string(8192, 'x');
    const auto header_frame = encode_stream_header(err);
    ASSERT_GT(header_frame.size(), 1024u + 64u);
    const StreamFrame decoded = decode_stream_frame(header_frame, 1024);
    EXPECT_EQ(decoded.header.code, ErrorCode::unknown_asset);
    StreamFin abort_fin;
    abort_fin.code = ErrorCode::internal;
    abort_fin.detail = std::string(4096, 'y');
    EXPECT_NO_THROW(decode_stream_frame(encode_stream_fin(abort_fin), 1024));

    // v1 responses: the same negotiated ceiling applies whole-frame.
    ServeResult res;
    res.code = ErrorCode::ok;
    res.payload = PayloadKind::file;
    res.wire = std::make_shared<const std::vector<u8>>(
        std::vector<u8>(4096, 0x5C));
    try {
        encode_response(res, 1000);
        FAIL() << "oversized v1 response was encoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    const auto v1 = encode_response(res);
    try {
        decode_response(v1, 1000);
        FAIL() << "oversized v1 response was decoded";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::frame_too_large);
    }
    EXPECT_NO_THROW(decode_response(v1, v1.size()));
}

TEST(StreamingLifecycle, UnloadAndEvictMidStreamKeepInFlightSegmentsValid) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "recoil_stream_lifecycle";
    fs::remove_all(dir);

    auto data = test::geometric_symbols<u8>(120000, 0.6, 256, 5);
    ContentServer server;
    server.store().attach_backing(std::make_shared<DiskStore>(dir));
    server.store().encode_bytes("asset", data, 32);
    const ServeRequest req{"asset", 8, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok());

    // unload() drops the in-memory asset, so the next resolve demand-loads a
    // zero-copy view of the mmapped container — the regime where mid-stream
    // lifecycle races would bite if the stream did not pin its buffers.
    ASSERT_TRUE(server.unload_asset("asset"));
    StreamOptions opt;
    opt.max_frame_bytes = 4096;
    opt.use_cache = false;  // stream straight from the asset's views
    auto stream = server.serve_stream(req, opt);
    std::vector<std::vector<u8>> frames;
    frames.push_back(*stream.next_frame());  // header
    frames.push_back(*stream.next_frame());  // first body

    // Half-drained: drop the asset from memory, then evict it everywhere
    // (cache, memory, disk). The stream holds the asset and its mapping.
    ASSERT_TRUE(server.unload_asset("asset"));
    frames.push_back(*stream.next_frame());
    ASSERT_TRUE(server.evict_asset("asset"));
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));

    const ServeResult got = reassemble(frames, opt.max_frame_bytes);
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.wire)
        << "segments emitted across unload/evict diverged";

    // The asset is really gone for new requests.
    EXPECT_EQ(server.serve(req).code, ErrorCode::unknown_asset);
    fs::remove_all(dir);
}

TEST_F(StreamingFixture, StreamingLeaderCoalescesMaterializedAndStreamedFollowers) {
    const ServeRequest req{"static", 6, std::nullopt, kAcceptStream};
    server.cache().clear();
    const auto before = server.totals();

    // The leader's combine holds the flight open until both followers (one
    // streamed, one materialized) are parked on it.
    std::atomic<bool> leading{false};
    on_combine = [&](const std::string&) {
        if (leading.exchange(true)) return;
        while (server.coalescing_waiters() < 2) std::this_thread::yield();
    };
    StreamOptions opt;
    opt.max_frame_bytes = 2048;
    std::optional<ServeStream> leader;
    std::thread leader_thread(
        [&] { leader.emplace(server.serve_stream(req, opt)); });
    while (!leading) std::this_thread::yield();

    // Streamed follower: replays the leader's wire once the combine is done.
    std::optional<ServeStream> follower_stream;
    std::vector<std::vector<u8>> follower_frames;
    std::thread streamed([&] {
        follower_stream.emplace(server.serve_stream(req, opt));
        while (auto f = follower_stream->next_frame())
            follower_frames.push_back(std::move(*f));
    });
    ServeResult follower_res;
    std::thread materialized([&] {
        follower_res = server.serve(ServeRequest{"static", 6, std::nullopt});
    });
    leader_thread.join();
    materialized.join();
    streamed.join();

    ASSERT_FALSE(leader->head().stats.coalesced);
    EXPECT_TRUE(follower_stream->head().stats.coalesced);
    std::vector<std::vector<u8>> leader_frames;
    while (auto f = leader->next_frame()) leader_frames.push_back(std::move(*f));

    const ServeResult got_leader = reassemble(leader_frames, opt.max_frame_bytes);
    const ServeResult got_follower =
        reassemble(follower_frames, opt.max_frame_bytes);
    ASSERT_TRUE(got_leader.ok());
    ASSERT_TRUE(got_follower.ok());
    ASSERT_TRUE(follower_res.ok()) << follower_res.detail;
    EXPECT_EQ(*got_follower.wire, *got_leader.wire);
    EXPECT_EQ(*follower_res.wire, *got_leader.wire);
    EXPECT_TRUE(got_follower.stats.coalesced);

    const auto after = server.totals();
    EXPECT_GE(after.coalesced_requests - before.coalesced_requests, 1u);
    // The leader's wire became the cache entry: the next request hits.
    auto warm = server.serve(ServeRequest{"static", 6, std::nullopt});
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(*warm.wire, *got_leader.wire);
}

TEST_F(StreamingFixture, AbandonedLeaderStillCompletesFollowersAndCache) {
    const ServeRequest req{"indexed", 4, std::nullopt, kAcceptStream};
    server.cache().clear();
    StreamOptions opt;
    opt.max_frame_bytes = 1024;

    // The leader's combine waits until the follower is parked on it.
    std::atomic<bool> leading{false};
    on_combine = [&](const std::string&) {
        if (leading.exchange(true)) return;
        while (server.coalescing_waiters() == 0) std::this_thread::yield();
    };
    ServeResult follower_res;
    std::thread follower;
    {
        std::optional<ServeStream> leader;
        std::thread leader_thread(
            [&] { leader.emplace(server.serve_stream(req, opt)); });
        while (!leading) std::this_thread::yield();
        follower = std::thread([&] {
            follower_res = server.serve(ServeRequest{"indexed", 4, std::nullopt});
        });
        leader_thread.join();
        (void)leader->next_frame();  // header only, then walk away
        // Leader destroyed here, half-drained: the follower and the cache
        // already have the wire its combine built.
    }
    follower.join();
    ASSERT_TRUE(follower_res.ok()) << follower_res.detail;
    const ServeResult ref = server.serve(ServeRequest{"indexed", 4, std::nullopt});
    EXPECT_TRUE(ref.stats.cache_hit);
    EXPECT_EQ(*follower_res.wire, *ref.wire);
}

TEST_F(StreamingFixture, EraseWhileProducerIsYieldedKeepsTheStreamBitExact) {
    // Pull the first body frame, erase the asset underneath the stream,
    // then keep draining: the stream's pinned asset and the keepers its
    // pieces hold must keep the asset's storage valid to the last frame.
    const ServeRequest req{"chunked", 4, std::nullopt, kAcceptStream};
    server.cache().clear();
    const ServeResult ref = server.serve(ServeRequest{"chunked", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    StreamOptions opt;
    opt.max_frame_bytes = 512;
    opt.use_cache = false;  // solo stream: only the pin holds the asset
    auto stream = server.serve_stream(req, opt);
    std::vector<std::vector<u8>> frames;
    frames.push_back(*stream.next_frame());  // header
    frames.push_back(*stream.next_frame());  // first body

    ASSERT_TRUE(server.store().erase("chunked"));
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));

    const ServeResult got = reassemble(frames, opt.max_frame_bytes);
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.wire)
        << "resume after erase served different bytes";
}

TEST(StreamingGate, StalePutGateHoldsForStreams) {
    // Evict the asset while its stream is being produced: the bytes keep
    // flowing (requests that began before the eviction complete), but the
    // assembled wire must NOT enter the cache for a dead generation.
    auto data = test::geometric_symbols<u8>(30000, 0.5, 256, 21);
    ContentServer reference;
    reference.store().encode_bytes("doomed", data, 8);
    const ServeResult ref = reference.serve({"doomed", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    ContentServer* srv = nullptr;
    bool evicted = false;
    ServerOptions hooked_opt;
    hooked_opt.combine_hook = [&](const std::string&) {
        if (!evicted) {
            evicted = true;
            srv->evict_asset("doomed");
        }
    };
    ContentServer hooked(hooked_opt);
    srv = &hooked;
    hooked.store().encode_bytes("doomed", data, 8);
    auto frames = collect_frames(
        hooked.serve_stream({"doomed", 4, std::nullopt, kAcceptStream}));
    const ServeResult got = reassemble(frames);
    ASSERT_TRUE(got.ok()) << got.detail;
    EXPECT_EQ(*got.wire, *ref.wire);
    EXPECT_EQ(hooked.cache().stats().insertions, 0u)
        << "a stream for an evicted asset re-entered the cache";
    EXPECT_EQ(hooked.serve({"doomed", 4, std::nullopt}).code,
              ErrorCode::unknown_asset);
}

TEST(StreamingMemory, ProducerStaysInsideTheWindowNotTheWire) {
    auto data = test::geometric_symbols<u8>(1'500'000, 0.8, 256, 9);
    ContentServer server;
    server.store().encode_bytes("big", data, 64);
    const ServeRequest req{"big", 64, std::nullopt, kAcceptStream};
    const ServeResult ref = server.serve(req);
    ASSERT_TRUE(ref.ok());
    const u64 wire = ref.wire->size();
    ASSERT_GT(wire, u64{1} << 19);  // far above one frame

    StreamOptions opt;
    opt.max_frame_bytes = 16384;
    opt.use_cache = false;  // the too-big-to-cache regime: no wire at all
    auto stream = server.serve_stream(req, opt);
    std::vector<std::vector<u8>> frames;
    while (auto f = stream.next_frame()) frames.push_back(std::move(*f));
    const u64 peak_owned = stream.peak_owned_bytes();

    EXPECT_LT(peak_owned, wire / 8)
        << "producer held O(wire) owned bytes; streaming should hold "
           "O(max segment)";
    const ServeResult got = reassemble(frames, opt.max_frame_bytes);
    EXPECT_EQ(*got.wire, *ref.wire);
}

/// Live thread count from /proc/self/status (Linux; the container and CI
/// host this repo targets).
int process_thread_count() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            std::istringstream ss(line.substr(8));
            int n = 0;
            ss >> n;
            return n;
        }
    }
    return -1;
}

#ifdef RECOIL_TSAN
constexpr int kSoakStreams = 500;  // TSan instruments every sync op; scale
#else
constexpr int kSoakStreams = 10000;
#endif

TEST(StreamingSoak, TenThousandStreamsCostWorkerThreadsNotStreamThreads) {
    ServerOptions opt;
    opt.telemetry = false;
    ContentServer server(opt);
    std::vector<u8> data(2000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>((i * 131) % 251);
    server.store().encode_bytes("soak", data, 4);
    const ServeResult ref = server.serve({"soak", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    const int before = process_thread_count();
    ASSERT_GT(before, 0);
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;

    // Every stream is left half-read: at any instant all kSoakStreams live
    // streams are idle cursors, which is exactly what must NOT cost a
    // thread each.
    StreamOptions sopt;
    sopt.max_frame_bytes = 256;
    sopt.use_cache = false;
    std::vector<ServeStream> streams;
    streams.reserve(static_cast<std::size_t>(kSoakStreams));
    int peak_threads = before;
    for (int i = 0; i < kSoakStreams; ++i) {
        streams.push_back(server.serve_stream(
            {"soak", 4, std::nullopt, kAcceptAll | kAcceptStreamed}, sopt));
        // Pull the header + first body frame so the stream has
        // demonstrably started.
        ASSERT_TRUE(streams.back().next_frame().has_value());
        ASSERT_TRUE(streams.back().next_frame().has_value());
        if (i % 256 == 0)
            peak_threads = std::max(peak_threads, process_thread_count());
    }
    peak_threads = std::max(peak_threads, process_thread_count());
    // Everything the process had before, plus slack for lazily created
    // runtime threads — nowhere near kSoakStreams.
    EXPECT_LE(peak_threads, before + static_cast<int>(2 * hw) + 8)
        << "streams are costing dedicated threads again";

    // Drain a sample of fresh streams fully and check bit-exactness end to
    // end while the half-read streams are still live.
    for (int i = 0; i < 20; ++i) {
        StreamReassembler client(sopt.max_frame_bytes);
        bool done = false;
        ServeStream fresh = server.serve_stream(
            {"soak", 4, std::nullopt, kAcceptAll | kAcceptStreamed}, sopt);
        while (auto f = fresh.next_frame()) done = client.feed(*f);
        ASSERT_TRUE(done);
        const ServeResult got = client.result();
        ASSERT_TRUE(got.ok()) << got.detail;
        EXPECT_EQ(*got.wire, *ref.wire);
    }
    // Mass abandon: dropping a half-read stream just frees its pieces.
    streams.clear();

    const int after_deadline_threads = process_thread_count();
    EXPECT_LE(after_deadline_threads, before + static_cast<int>(2 * hw) + 8);
}

TEST(CacheGauges, PeakBytesIsAHighWaterMarkThatSurvivesClear) {
    MetadataCache cache(1000);
    auto wire = [](std::size_t n) {
        return std::make_shared<const std::vector<u8>>(std::vector<u8>(n, 1));
    };
    cache.put("a", 1, wire(400));
    cache.put("b", 1, wire(500));
    EXPECT_EQ(cache.stats().peak_bytes, 900u);
    cache.put("c", 1, wire(300));  // evicts down, but peak saw 1200
    EXPECT_EQ(cache.stats().peak_bytes, 1200u);
    EXPECT_LE(cache.stats().bytes, 1000u);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().peak_bytes, 1200u) << "peak must survive clear()";
    cache.put("d", 1, wire(100));
    EXPECT_EQ(cache.stats().peak_bytes, 1200u);
}

TEST(StoreScrub, VerifyReportsCorruptAssetsAsTypedIssues) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "recoil_verify_store";
    fs::remove_all(dir);
    {
        AssetStore store;
        store.attach_backing(std::make_shared<DiskStore>(dir));
        store.encode_bytes("good", test::geometric_symbols<u8>(9000, 0.5, 256, 1), 4);
        store.encode_bytes("bad", test::geometric_symbols<u8>(9000, 0.5, 256, 2), 4);
    }
    {
        DiskStore store(dir);
        EXPECT_TRUE(store.verify().ok());
        EXPECT_EQ(store.verify().checked, 2u);
    }
    // Flip one byte in the middle of "bad"'s container.
    for (const auto& entry : fs::directory_iterator(dir)) {
        const auto name = entry.path().filename().string();
        if (name.starts_with("bad") && entry.path().extension() == ".rca") {
            std::fstream f(entry.path(),
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
            char c;
            f.seekg(static_cast<std::streamoff>(entry.file_size() / 2));
            f.read(&c, 1);
            c = static_cast<char>(c ^ 0x10);
            f.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
            f.write(&c, 1);
        }
    }
    DiskStore store(dir);
    const auto report = store.verify();
    EXPECT_EQ(report.checked, 2u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].name, "bad");
    EXPECT_EQ(report.issues[0].status, StoreStatus::bad_container);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace recoil::serve
