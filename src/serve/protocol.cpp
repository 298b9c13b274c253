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

/// Most a reassembler reserves up front from a header's announced wire
/// size; a larger announcement grows with the bytes that actually arrive.
constexpr u64 kMaxReserveBytes = u64{64} << 20;

[[noreturn]] void fail(ErrorCode code, const std::string& what) {
    throw ProtocolError(code, what);
}

/// Bytes of a v1 response before its wire, less the detail text: magic,
/// version, code, kind, flags, splits, detail length, wire length.
constexpr u64 kResponseHeadBytes = 4 + 1 + 2 + 1 + 1 + 4 + 4 + 8;

/// Little-endian unsigned of `width` bytes at the start of `b`.
u64 read_le(std::span<const u8> b, int width) {
    u64 v = 0;
    for (int i = 0; i < width; ++i) v |= u64{b[static_cast<std::size_t>(i)]} << (8 * i);
    return v;
}

/// The bytes a frame's trailer covers, and their CRC32C.
struct Verified {
    std::span<const u8> covered;
    u32 crc = 0;
};

/// Frame-level integrity: length floor + trailing CRC32C, classified
/// into typed codes (unlike wire_io's checked_payload, which reports strings
/// only).
Verified verify_frame(std::span<const u8> frame, const char* ctx) {
    if (frame.size() < 16)
        fail(ErrorCode::malformed_frame, std::string(ctx) + ": frame too short");
    const u64 stored = read_le(frame.last(8), 8);
    const auto covered = frame.first(frame.size() - 8);
    const u32 crc = format::crc32c(covered);
    if (crc != stored)
        fail(ErrorCode::checksum_mismatch, std::string(ctx) + ": checksum mismatch");
    return {covered, crc};
}

/// CRC32C of the `len` bytes that follow `head` in a run whose CRC is
/// `crc_whole`: crc(h ‖ p) = crc(h)·x^(8|p|) ⊕ crc(p), solved for crc(p).
u32 tail_crc(u32 crc_whole, std::span<const u8> head, u64 len) {
    return crc_whole ^ format::crc32c_combine(format::crc32c(head), 0, len);
}

void put_detail(std::vector<u8>& out, const std::string& detail) {
    const std::size_t n = std::min<std::size_t>(detail.size(), kMaxDetailLen);
    put_u32(out, static_cast<u32>(n));
    out.insert(out.end(), detail.begin(), detail.begin() + static_cast<std::ptrdiff_t>(n));
}

/// The 8-byte trailer holding `crc`, zero-extended.
format::ByteBuffer trailer(u32 crc) {
    std::vector<u8> t;
    t.reserve(8);
    put_u64(t, crc);
    return t;
}

/// A frame that is all owned bytes: seal `bytes` with its trailer, as one
/// slice.
FrameSlices sealed(std::vector<u8> bytes) {
    append_checksum(bytes);
    FrameSlices f;
    f.slices.push_back(std::move(bytes));
    return f;
}

[[noreturn]] void frame_too_large(const char* ctx, u64 size, const char* what,
                                  u64 max) {
    fail(ErrorCode::frame_too_large,
         std::string(ctx) + ": " + std::to_string(size) + " B " + what +
             " exceeds the negotiated " + std::to_string(max) + " B maximum");
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
    const auto payload = verify_frame(frame, ctx).covered;
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

u64 FrameSlices::size() const noexcept {
    u64 n = 0;
    for (const format::ByteBuffer& s : slices) n += s.size();
    return n;
}

std::vector<u8> FrameSlices::materialize() const {
    std::vector<u8> out;
    out.reserve(size());
    for (const format::ByteBuffer& s : slices) out.insert(out.end(), s.begin(), s.end());
    return out;
}

FrameSlices response_frame(const ServeResult& res, u64 max_frame_bytes) {
    const bool has_wire = res.ok() && res.wire != nullptr && !res.wire->empty();
    const u64 wire_len = has_wire ? res.wire->size() : 0;
    std::vector<u8> head;
    head.reserve(kResponseHeadBytes +
                 std::min<std::size_t>(res.detail.size(), kMaxDetailLen));
    head.insert(head.end(), kResponseMagic, kResponseMagic + 4);
    head.push_back(kProtocolVersion);
    put_u16(head, static_cast<u16>(res.code));
    head.push_back(static_cast<u8>(res.payload));
    head.push_back(static_cast<u8>((res.stats.cache_hit ? kResponseFlagCacheHit : 0) |
                                   (res.stats.coalesced ? kResponseFlagCoalesced : 0)));
    put_u32(head, res.stats.splits_served);
    put_detail(head, res.detail);
    put_u64(head, wire_len);
    const u64 total = head.size() + wire_len + 8;
    if (max_frame_bytes != kNoFrameLimit && total > max_frame_bytes)
        frame_too_large("serve response", total, "frame", max_frame_bytes);
    if (!has_wire) return sealed(std::move(head));
    const u32 head_crc = format::crc32c(head);
    const u32 crc = res.wire_crc && wire_len >= format::kCrc32cCombineMinBytes
                        ? format::crc32c_combine(head_crc, *res.wire_crc, wire_len)
                        : format::crc32c(*res.wire, head_crc);
    FrameSlices f;
    f.slices.reserve(3);
    f.slices.push_back(std::move(head));
    f.slices.push_back(format::ByteBuffer::view(*res.wire, res.wire));
    f.slices.push_back(trailer(crc));
    return f;
}

std::vector<u8> encode_response(const ServeResult& res, u64 max_frame_bytes) {
    return response_frame(res, max_frame_bytes).materialize();
}

ServeResult decode_response(std::span<const u8> frame, u64 max_frame_bytes) {
    const char* ctx = "serve response";
    if (max_frame_bytes != kNoFrameLimit && frame.size() > max_frame_bytes)
        frame_too_large("serve response", frame.size(), "frame", max_frame_bytes);
    const auto payload = verify_frame(frame, ctx).covered;
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

FrameSlices stream_header_frame(const StreamHeader& h) {
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
    put_detail(out, h.detail);
    return sealed(std::move(out));
}

FrameSlices stream_body_frame(u32 seq, std::vector<format::ByteBuffer> payload,
                              std::optional<u32> payload_crc,
                              u64 max_frame_bytes) {
    u64 len = 0;
    for (const format::ByteBuffer& s : payload) len += s.size();
    if (max_frame_bytes != kNoFrameLimit && len > max_frame_bytes)
        frame_too_large("stream body", len, "payload", max_frame_bytes);
    std::vector<u8> head;
    head.reserve(kStreamBodyOverhead - 8);
    put_stream_preamble(head, StreamFrameType::body);
    head.push_back(0);  // reserved
    put_u32(head, seq);
    put_u64(head, len);
    u32 crc = format::crc32c(head);
    if (payload_crc) {
        crc = format::crc32c_combine(crc, *payload_crc, len);
    } else {
        for (const format::ByteBuffer& s : payload) crc = format::crc32c(s, crc);
    }
    FrameSlices f;
    f.slices.reserve(payload.size() + 2);
    f.slices.push_back(std::move(head));
    for (format::ByteBuffer& s : payload) f.slices.push_back(std::move(s));
    f.slices.push_back(trailer(crc));
    return f;
}

FrameSlices stream_fin_frame(const StreamFin& fin) {
    std::vector<u8> out;
    put_stream_preamble(out, StreamFrameType::fin);
    out.push_back(0);  // reserved
    put_u16(out, static_cast<u16>(fin.code));
    put_u32(out, fin.body_frames);
    put_u32(out, fin.splits);
    put_u64(out, fin.wire_checksum);
    put_detail(out, fin.detail);
    return sealed(std::move(out));
}

std::vector<u8> encode_stream_header(const StreamHeader& h) {
    return stream_header_frame(h).materialize();
}

std::vector<u8> encode_stream_body(u32 seq, std::span<const u8> payload,
                                   u64 max_frame_bytes) {
    return stream_body_frame(seq, {format::ByteBuffer::view(payload, nullptr)},
                             std::nullopt, max_frame_bytes)
        .materialize();
}

std::vector<u8> encode_stream_fin(const StreamFin& fin) {
    return stream_fin_frame(fin).materialize();
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
    const Verified ver = verify_frame(frame, ctx);
    return parse_frame(ver.covered, ctx, [&](Cursor& c) {
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
                    frame_too_large(ctx, len, "body", max_frame_bytes);
                if (len == 0)
                    fail(ErrorCode::malformed_frame,
                         std::string(ctx) + ": empty body frame");
                const std::size_t head = c.pos;
                f.payload = c.get_bytes(len);
                if (len >= format::kCrc32cCombineMinBytes)
                    f.payload_crc = tail_crc(ver.crc, ver.covered.first(head), len);
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
            digest_ = f.payload_crc ? format::crc32c_combine(digest_, *f.payload_crc,
                                                             f.payload.size())
                                    : format::crc32c(f.payload, digest_);
            if (wire_->empty() && head_.wire_bytes != 0)
                wire_->reserve(static_cast<std::size_t>(
                    std::min<u64>(head_.wire_bytes, kMaxReserveBytes)));
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
        res.wire_crc = digest_;  // the FIN-checked whole-wire CRC
        res.stats.wire_bytes = wire_->size();
    }
    return res;
}

}  // namespace recoil::serve
