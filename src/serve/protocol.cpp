#include "serve/protocol.hpp"

#include <cstring>

#include "format/wire_io.hpp"

namespace recoil::serve {

using namespace format::wire;

namespace {

constexpr char kRequestMagic[4] = {'R', 'C', 'R', 'Q'};
constexpr char kResponseMagic[4] = {'R', 'C', 'R', 'S'};

constexpr u8 kRequestFlagHasRange = 1;
constexpr u8 kRequestFlagHasResume = 2;
constexpr u8 kResponseFlagCacheHit = 1;
constexpr u8 kResponseFlagCoalesced = 2;

/// Structural bytes of a v2 body frame besides its payload (magic, version,
/// type, reserved, seq, length, checksum) — the slack allowed on top of the
/// negotiated payload ceiling when judging a whole frame's size.
constexpr u64 kStreamBodyOverhead = 4 + 1 + 1 + 1 + 4 + 8 + 8;

[[noreturn]] void fail(ErrorCode code, const std::string& what) {
    throw ProtocolError(code, what);
}

/// Frame-level integrity: length floor + trailing CRC32C, classified
/// into typed codes (unlike wire_io's checked_payload, which reports strings
/// only). Returns the payload the checksum covers.
std::span<const u8> verify_frame(std::span<const u8> frame, const char* ctx) {
    if (frame.size() < 16)
        fail(ErrorCode::malformed_frame, std::string(ctx) + ": frame too short");
    u64 stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= u64{frame[frame.size() - 8 + i]} << (8 * i);
    auto payload = frame.first(frame.size() - 8);
    if (format::crc32c(payload) != stored)
        fail(ErrorCode::checksum_mismatch, std::string(ctx) + ": checksum mismatch");
    return payload;
}

/// Wrap the structural parse so cursor bounds violations (plain recoil::Error
/// from wire_io) surface as typed malformed_frame errors.
template <typename Fn>
auto parse_frame(std::span<const u8> payload, const char* ctx, Fn&& fn) {
    Cursor c{payload, ctx};
    try {
        auto out = fn(c);
        if (c.pos != payload.size())
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": trailing bytes");
        return out;
    } catch (const ProtocolError&) {
        throw;
    } catch (const Error& e) {
        fail(ErrorCode::malformed_frame, e.what());
    }
}

void check_magic(Cursor& c, const char (&magic)[4], const char* ctx) {
    if (std::memcmp(c.get_bytes(4).data(), magic, 4) != 0)
        fail(ErrorCode::malformed_frame, std::string(ctx) + ": bad magic");
}

void check_version(Cursor& c, const char* ctx) {
    const u8 v = c.get_u8();
    if (v != kProtocolVersion)
        fail(ErrorCode::unsupported_version,
             std::string(ctx) + ": unsupported version " + std::to_string(v));
}

}  // namespace

const char* error_name(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::ok: return "ok";
        case ErrorCode::unknown_asset: return "unknown_asset";
        case ErrorCode::invalid_range: return "invalid_range";
        case ErrorCode::not_acceptable: return "not_acceptable";
        case ErrorCode::bad_request: return "bad_request";
        case ErrorCode::malformed_frame: return "malformed_frame";
        case ErrorCode::checksum_mismatch: return "checksum_mismatch";
        case ErrorCode::unsupported_version: return "unsupported_version";
        case ErrorCode::internal: return "internal";
        case ErrorCode::frame_too_large: return "frame_too_large";
    }
    return "unknown";
}

const char* payload_name(PayloadKind kind) noexcept {
    switch (kind) {
        case PayloadKind::none: return "none";
        case PayloadKind::file: return "file";
        case PayloadKind::chunked: return "chunked";
        case PayloadKind::range: return "range";
        case PayloadKind::metrics: return "metrics";
    }
    return "unknown";
}

std::vector<u8> encode_request(const ServeRequest& req) {
    // Fail fast on anything decode_request would reject: an unparseable
    // frame wastes a round trip and comes back as a server-side bad_request.
    RECOIL_CHECK(!req.asset.empty() && req.asset.size() <= kMaxAssetNameLen,
                 "encode_request: bad asset name length");
    RECOIL_CHECK(req.parallelism != 0, "encode_request: zero parallelism");
    RECOIL_CHECK(
        req.accept != 0 &&
            (req.accept & ~(kAcceptAll | kAcceptStreamed | kAcceptMetrics)) ==
                0,
        "encode_request: bad accept mask");
    RECOIL_CHECK(req.resume_offset == 0 ||
                     (req.accept & kAcceptStreamed) != 0,
                 "encode_request: resume_offset requires kAcceptStreamed");
    std::vector<u8> out;
    out.insert(out.end(), kRequestMagic, kRequestMagic + 4);
    out.push_back(kProtocolVersion);
    out.push_back(static_cast<u8>(
        (req.range ? kRequestFlagHasRange : 0) |
        (req.resume_offset != 0 ? kRequestFlagHasResume : 0)));
    out.push_back(req.accept);
    out.push_back(0);  // reserved
    put_u32(out, req.parallelism);
    put_u32(out, static_cast<u32>(req.asset.size()));
    out.insert(out.end(), req.asset.begin(), req.asset.end());
    if (req.range) {
        put_u64(out, req.range->first);
        put_u64(out, req.range->second);
    }
    if (req.resume_offset != 0) put_u64(out, req.resume_offset);
    append_checksum(out);
    return out;
}

ServeRequest decode_request(std::span<const u8> frame) {
    const char* ctx = "serve request";
    auto payload = verify_frame(frame, ctx);
    return parse_frame(payload, ctx, [&](Cursor& c) {
        check_magic(c, kRequestMagic, ctx);
        check_version(c, ctx);
        const u8 flags = c.get_u8();
        if ((flags & ~(kRequestFlagHasRange | kRequestFlagHasResume)) != 0)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": unknown flags");
        ServeRequest req;
        req.accept = c.get_u8();
        if (req.accept == 0 ||
            (req.accept & ~(kAcceptAll | kAcceptStreamed | kAcceptMetrics)) !=
                0)
            fail(ErrorCode::bad_request, std::string(ctx) + ": bad accept mask");
        if (c.get_u8() != 0)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": reserved byte set");
        req.parallelism = c.get_u32();
        if (req.parallelism == 0)
            fail(ErrorCode::bad_request, std::string(ctx) + ": zero parallelism");
        const u32 name_len = c.get_u32();
        if (name_len == 0 || name_len > kMaxAssetNameLen)
            fail(ErrorCode::bad_request, std::string(ctx) + ": bad asset name length");
        auto name = c.get_bytes(name_len);
        req.asset.assign(name.begin(), name.end());
        if ((flags & kRequestFlagHasRange) != 0) {
            const u64 lo = c.get_u64();
            const u64 hi = c.get_u64();
            req.range = {lo, hi};
        }
        if ((flags & kRequestFlagHasResume) != 0) {
            req.resume_offset = c.get_u64();
            if (req.resume_offset == 0)
                fail(ErrorCode::bad_request,
                     std::string(ctx) + ": zero resume offset flagged");
            if ((req.accept & kAcceptStreamed) == 0)
                fail(ErrorCode::bad_request,
                     std::string(ctx) +
                         ": resume offset without streamed accept");
        }
        return req;
    });
}

std::vector<u8> encode_response(const ServeResult& res, u64 max_frame_bytes) {
    const bool has_wire = res.ok() && res.wire != nullptr;
    std::vector<u8> out;
    // One allocation: growing past the wire to append the trailer would
    // copy a multi-megabyte frame a second time.
    out.reserve(4 + 1 + 2 + 1 + 1 + 4 + 4 +
                std::min<std::size_t>(res.detail.size(), kMaxDetailLen) + 8 +
                (has_wire ? res.wire->size() : 0) + 8);
    out.insert(out.end(), kResponseMagic, kResponseMagic + 4);
    out.push_back(kProtocolVersion);
    put_u16(out, static_cast<u16>(res.code));
    out.push_back(static_cast<u8>(res.payload));
    out.push_back(static_cast<u8>((res.stats.cache_hit ? kResponseFlagCacheHit : 0) |
                                  (res.stats.coalesced ? kResponseFlagCoalesced : 0)));
    put_u32(out, res.stats.splits_served);
    std::string detail = res.detail;
    if (detail.size() > kMaxDetailLen) detail.resize(kMaxDetailLen);
    put_u32(out, static_cast<u32>(detail.size()));
    out.insert(out.end(), detail.begin(), detail.end());
    if (has_wire) {
        put_u64(out, res.wire->size());
        out.insert(out.end(), res.wire->begin(), res.wire->end());
    } else {
        put_u64(out, 0);
    }
    append_checksum(out);
    if (max_frame_bytes != kNoFrameLimit && out.size() > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             "serve response: " + std::to_string(out.size()) +
                 " B frame exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    return out;
}

ServeResult decode_response(std::span<const u8> frame, u64 max_frame_bytes) {
    const char* ctx = "serve response";
    if (max_frame_bytes != kNoFrameLimit && frame.size() > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             "serve response: " + std::to_string(frame.size()) +
                 " B frame exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    auto payload = verify_frame(frame, ctx);
    return parse_frame(payload, ctx, [&](Cursor& c) {
        check_magic(c, kResponseMagic, ctx);
        check_version(c, ctx);
        ServeResult res;
        // Codes beyond the ones this build knows are preserved, not
        // rejected: the protocol contract lets servers append codes without
        // a version bump, and error_name() reports them as "unknown".
        // Payload kinds stay strict — a payload form the client never
        // accepted (negotiation) could not be decoded anyway.
        res.code = static_cast<ErrorCode>(c.get_u16());
        const u8 kind = c.get_u8();
        if (kind > static_cast<u8>(PayloadKind::metrics))
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": unknown payload kind");
        res.payload = static_cast<PayloadKind>(kind);
        const u8 flags = c.get_u8();
        if ((flags & ~(kResponseFlagCacheHit | kResponseFlagCoalesced)) != 0)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": unknown flags");
        res.stats.cache_hit = (flags & kResponseFlagCacheHit) != 0;
        res.stats.coalesced = (flags & kResponseFlagCoalesced) != 0;
        res.stats.splits_served = c.get_u32();
        const u32 detail_len = c.get_u32();
        if (detail_len > kMaxDetailLen)
            fail(ErrorCode::malformed_frame, std::string(ctx) + ": detail too long");
        auto detail = c.get_bytes(detail_len);
        res.detail.assign(detail.begin(), detail.end());
        const u64 wire_len = c.get_u64();
        // Success carries exactly one payload; errors carry none. Enforcing
        // the correlation keeps transports from trusting half-formed frames.
        if (res.ok() != (res.payload != PayloadKind::none) ||
            res.ok() != (wire_len != 0))
            fail(ErrorCode::malformed_frame,
                 std::string(ctx) + ": payload/status mismatch");
        if (wire_len != 0) {
            auto bytes = c.get_bytes(wire_len);
            res.wire = std::make_shared<const std::vector<u8>>(bytes.begin(),
                                                               bytes.end());
            res.stats.wire_bytes = wire_len;
        }
        return res;
    });
}

// ---- v2 streamed response framing ----

namespace {

constexpr u8 kStreamFlagCacheHit = 1;
constexpr u8 kStreamFlagCoalesced = 2;

void put_stream_preamble(std::vector<u8>& out, StreamFrameType type) {
    out.insert(out.end(), kResponseMagic, kResponseMagic + 4);
    out.push_back(kStreamVersion);
    out.push_back(static_cast<u8>(type));
}

}  // namespace

std::vector<u8> encode_stream_header(const StreamHeader& h) {
    std::vector<u8> out;
    put_stream_preamble(out, StreamFrameType::header);
    out.push_back(static_cast<u8>((h.cache_hit ? kStreamFlagCacheHit : 0) |
                                  (h.coalesced ? kStreamFlagCoalesced : 0)));
    put_u16(out, static_cast<u16>(h.code));
    out.push_back(static_cast<u8>(h.payload));
    out.push_back(0);  // reserved
    put_u32(out, h.splits);
    put_u64(out, h.wire_bytes);
    put_u64(out, h.max_frame_bytes);
    std::string detail = h.detail;
    if (detail.size() > kMaxDetailLen) detail.resize(kMaxDetailLen);
    put_u32(out, static_cast<u32>(detail.size()));
    out.insert(out.end(), detail.begin(), detail.end());
    append_checksum(out);
    return out;
}

std::vector<u8> encode_stream_body(u32 seq, std::span<const u8> payload,
                                   u64 max_frame_bytes) {
    if (max_frame_bytes != kNoFrameLimit && payload.size() > max_frame_bytes)
        fail(ErrorCode::frame_too_large,
             "stream body: " + std::to_string(payload.size()) +
                 " B payload exceeds the negotiated " +
                 std::to_string(max_frame_bytes) + " B maximum");
    std::vector<u8> out;
    out.reserve(payload.size() + kStreamBodyOverhead);
    put_stream_preamble(out, StreamFrameType::body);
    out.push_back(0);  // reserved
    put_u32(out, seq);
    put_u64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    append_checksum(out);
    return out;
}

std::vector<u8> encode_stream_fin(const StreamFin& fin) {
    std::vector<u8> out;
    put_stream_preamble(out, StreamFrameType::fin);
    out.push_back(0);  // reserved
    put_u16(out, static_cast<u16>(fin.code));
    put_u32(out, fin.body_frames);
    put_u32(out, fin.splits);
    put_u64(out, fin.wire_checksum);
    std::string detail = fin.detail;
    if (detail.size() > kMaxDetailLen) detail.resize(kMaxDetailLen);
    put_u32(out, static_cast<u32>(detail.size()));
    out.insert(out.end(), detail.begin(), detail.end());
    append_checksum(out);
    return out;
}

StreamFrame decode_stream_frame(std::span<const u8> frame,
                                u64 max_frame_bytes) {
    const char* ctx = "stream frame";
    // The negotiated ceiling protects the receiver's body buffer; it is
    // enforced on the body length field below, before any payload is
    // materialized. Header and FIN frames are exempt: they are structurally
    // bounded by kMaxDetailLen regardless of the negotiated body size, and
    // a typed error header must never be masked by frame_too_large just
    // because its detail outgrew a small body ceiling. (A transport read
    // loop should cap its length prefix at
    // max_frame_bytes + kMaxDetailLen + overhead.)
    auto payload = verify_frame(frame, ctx);
    return parse_frame(payload, ctx, [&](Cursor& c) {
        check_magic(c, kResponseMagic, ctx);
        const u8 v = c.get_u8();
        if (v != kStreamVersion)
            fail(ErrorCode::unsupported_version,
                 std::string(ctx) + ": unsupported version " + std::to_string(v));
        StreamFrame f;
        const u8 type = c.get_u8();
        if (type > static_cast<u8>(StreamFrameType::fin))
            fail(ErrorCode::malformed_frame,
                 std::string(ctx) + ": unknown frame type");
        f.type = static_cast<StreamFrameType>(type);
        switch (f.type) {
            case StreamFrameType::header: {
                const u8 flags = c.get_u8();
                if ((flags & ~(kStreamFlagCacheHit | kStreamFlagCoalesced)) != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": unknown flags");
                f.header.cache_hit = (flags & kStreamFlagCacheHit) != 0;
                f.header.coalesced = (flags & kStreamFlagCoalesced) != 0;
                // Unknown codes are preserved (same contract as v1).
                f.header.code = static_cast<ErrorCode>(c.get_u16());
                const u8 kind = c.get_u8();
                if (kind > static_cast<u8>(PayloadKind::metrics))
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": unknown payload kind");
                f.header.payload = static_cast<PayloadKind>(kind);
                if (c.get_u8() != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": reserved byte set");
                f.header.splits = c.get_u32();
                f.header.wire_bytes = c.get_u64();
                f.header.max_frame_bytes = c.get_u64();
                const u32 detail_len = c.get_u32();
                if (detail_len > kMaxDetailLen)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": detail too long");
                auto detail = c.get_bytes(detail_len);
                f.header.detail.assign(detail.begin(), detail.end());
                const bool err = f.header.code != ErrorCode::ok;
                if (err != (f.header.payload == PayloadKind::none))
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": payload/status mismatch");
                break;
            }
            case StreamFrameType::body: {
                if (c.get_u8() != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": reserved byte set");
                f.seq = c.get_u32();
                const u64 len = c.get_u64();
                if (max_frame_bytes != kNoFrameLimit && len > max_frame_bytes)
                    fail(ErrorCode::frame_too_large,
                         std::string(ctx) + ": " + std::to_string(len) +
                             " B body exceeds the negotiated " +
                             std::to_string(max_frame_bytes) + " B maximum");
                if (len == 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": empty body frame");
                f.payload = c.get_bytes(len);
                break;
            }
            case StreamFrameType::fin: {
                if (c.get_u8() != 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": reserved byte set");
                f.fin.code = static_cast<ErrorCode>(c.get_u16());
                f.fin.body_frames = c.get_u32();
                f.fin.splits = c.get_u32();
                f.fin.wire_checksum = c.get_u64();
                const u32 detail_len = c.get_u32();
                if (detail_len > kMaxDetailLen)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": detail too long");
                auto detail = c.get_bytes(detail_len);
                f.fin.detail.assign(detail.begin(), detail.end());
                break;
            }
        }
        return f;
    });
}

bool StreamReassembler::feed(std::span<const u8> frame) {
    if (done_)
        throw ProtocolError(ErrorCode::malformed_frame,
                            "stream reassembly: frame after completion");
    const StreamFrame f = decode_stream_frame(frame, max_frame_);
    switch (f.type) {
        case StreamFrameType::header: {
            if (have_header_)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: duplicate header");
            have_header_ = true;
            head_ = f.header;
            splits_ = head_.splits;
            if (head_.code != ErrorCode::ok) done_ = true;  // error: no body
            break;
        }
        case StreamFrameType::body: {
            if (!have_header_)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: body before header");
            if (f.seq != next_seq_)
                throw ProtocolError(
                    ErrorCode::malformed_frame,
                    "stream reassembly: body frame " + std::to_string(f.seq) +
                        " arrived, expected " + std::to_string(next_seq_));
            if (head_.wire_bytes != 0 &&
                wire_->size() + f.payload.size() > head_.wire_bytes)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: body bytes exceed the "
                                    "announced wire size");
            ++next_seq_;
            digest_ = format::crc32c(f.payload, digest_);
            wire_->insert(wire_->end(), f.payload.begin(), f.payload.end());
            break;
        }
        case StreamFrameType::fin: {
            if (!have_header_)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: FIN before header");
            if (f.fin.code != ErrorCode::ok)
                throw ProtocolError(f.fin.code,
                                    "stream aborted mid-way: " + f.fin.detail);
            if (f.fin.body_frames != next_seq_)
                throw ProtocolError(
                    ErrorCode::malformed_frame,
                    "stream reassembly: FIN reports " +
                        std::to_string(f.fin.body_frames) + " body frames, got " +
                        std::to_string(next_seq_));
            if (head_.wire_bytes != 0 && wire_->size() != head_.wire_bytes)
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: body bytes do not "
                                    "reach the announced wire size");
            if (wire_->empty())
                throw ProtocolError(ErrorCode::malformed_frame,
                                    "stream reassembly: ok stream with no body");
            if (f.fin.wire_checksum != digest_)
                throw ProtocolError(ErrorCode::checksum_mismatch,
                                    "stream reassembly: whole-wire checksum "
                                    "mismatch");
            splits_ = f.fin.splits;
            done_ = true;
            break;
        }
    }
    return done_;
}

const StreamHeader& StreamReassembler::header() const {
    RECOIL_CHECK(have_header_, "stream reassembly: no header fed yet");
    return head_;
}

ServeResult StreamReassembler::result() const {
    RECOIL_CHECK(done_, "stream reassembly: stream not complete");
    ServeResult res;
    res.code = head_.code;
    res.detail = head_.detail;
    res.payload = head_.payload;
    res.stats.cache_hit = head_.cache_hit;
    res.stats.coalesced = head_.coalesced;
    res.stats.splits_served = splits_;
    if (res.ok()) {
        // Alias the accumulation buffer (it never mutates after done_):
        // handing out the wire costs no copy.
        res.wire = WireBytes(wire_);
        res.stats.wire_bytes = wire_->size();
    }
    return res;
}

}  // namespace recoil::serve
