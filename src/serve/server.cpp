#include "serve/server.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "simd/dispatch.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace recoil::serve {

namespace {

/// Cache keys embed the asset's store generation, so replacing an asset
/// under the same name orphans the predecessor's entries instead of serving
/// its bytes; the orphans age out through normal LRU eviction. Both forms
/// start with "name\n", which is what erase_asset() prefix-matches.
std::string asset_key(const Asset& a) {
    return a.name() + "\n#" + std::to_string(a.uid());
}

std::string range_key(const Asset& a, u64 lo, u64 hi) {
    return asset_key(a) + "\nrange:" + std::to_string(lo) + "-" +
           std::to_string(hi);
}

ServeResult fail(ErrorCode code, std::string detail) {
    ServeResult res;
    res.code = code;
    res.detail = std::move(detail);
    return res;
}

WireBytes share(std::vector<u8> bytes) {
    return std::make_shared<const std::vector<u8>>(std::move(bytes));
}

/// Collects a producer's wire pieces in order: owned structural sections
/// and borrowed payload views, exactly as the serializer emitted them.
class PieceSink final : public format::WireSink {
public:
    explicit PieceSink(std::deque<format::ByteBuffer>& out) : out_(out) {}
    void write(format::ByteBuffer piece) override {
        if (!piece.empty()) out_.push_back(std::move(piece));
    }

private:
    std::deque<format::ByteBuffer>& out_;
};

/// The materialized wire of a piece list: one reserved copy.
WireBytes concat(const std::deque<format::ByteBuffer>& pieces) {
    std::size_t n = 0;
    for (const format::ByteBuffer& p : pieces) n += p.size();
    std::vector<u8> out;
    out.reserve(n);
    for (const format::ByteBuffer& p : pieces)
        out.insert(out.end(), p.begin(), p.end());
    return share(std::move(out));
}

}  // namespace

namespace detail {

/// Everything behind one ServeStream: the response, produced in full by
/// serve_stream(), as a queue of wire pieces, plus the framing cursor over
/// them. Only the stream's single consumer touches it.
struct StreamState {
    ContentServer* server = nullptr;
    StreamOptions opt;
    ServeResult head;  ///< status + stats known at stream start; wire null
    /// Pins the asset for the stream's life (the governor's in-use skip
    /// sees the stream), alongside the storage keepers the pieces hold.
    std::shared_ptr<const Asset> asset;
    /// Request trace (inactive when telemetry is off).
    obs::TraceContext trace;
    obs::Histogram* h_frame = nullptr;  ///< stream_frame_seconds (or null)

    // ---- the cursor ----
    std::deque<format::ByteBuffer> pieces;  ///< unsent wire, in order
    std::size_t front_off = 0;  ///< bytes of pieces.front() already sent
    u64 owned_left = 0;  ///< owned (non-borrowed) bytes still in `pieces`
    u64 peak_owned = 0;
    /// The cursor reached the first borrowed (payload) piece: the
    /// metadata-dense prefix is over, frames grow to max_frame_bytes.
    bool payload_phase = false;

    enum class Phase : u8 { header, body, fin, finished };
    Phase phase = Phase::header;
    u64 emitted_payload = 0;
    u32 digest = 0;  ///< CRC32C of the wire up to the cursor
    u32 seq = 0;
    u64 frames = 0;

    /// Move the cursor `n` bytes forward (n <= what the front piece has
    /// left), releasing the front piece once it is fully consumed.
    void advance(std::size_t n) {
        front_off += n;
        if (front_off < pieces.front().size()) return;
        if (!pieces.front().borrowed()) owned_left -= pieces.front().size();
        pieces.pop_front();
        front_off = 0;
    }

    /// Resume: skip the first `n` wire bytes without emitting them, hashing
    /// them into the digest so the FIN checksum still covers the whole wire.
    void seek(u64 n) {
        while (n > 0 && !pieces.empty()) {
            const format::ByteBuffer& piece = pieces.front();
            if (piece.borrowed()) payload_phase = true;
            const std::size_t k = static_cast<std::size_t>(
                std::min<u64>(n, piece.size() - front_off));
            digest = format::crc32c(
                std::span<const u8>(piece.data() + front_off, k), digest);
            advance(k);
            n -= k;
        }
    }

    /// Payload ceiling of the next body frame: small while the cursor is
    /// on the structural prefix, max_frame_bytes once payload starts.
    u64 frame_target() const {
        return payload_phase ? opt.max_frame_bytes : opt.prefix_frame_bytes;
    }
};

}  // namespace detail

// ---- ServeStream ----

ServeStream::ServeStream(std::unique_ptr<detail::StreamState> st)
    : st_(std::move(st)) {}

ServeStream::~ServeStream() = default;
ServeStream::ServeStream(ServeStream&&) noexcept = default;
ServeStream& ServeStream::operator=(ServeStream&&) noexcept = default;

const ServeResult& ServeStream::head() const noexcept { return st_->head; }

bool ServeStream::done() const noexcept {
    return st_->phase == detail::StreamState::Phase::finished;
}

u64 ServeStream::frames_emitted() const noexcept { return st_->frames; }

u64 ServeStream::peak_owned_bytes() const noexcept { return st_->peak_owned; }

std::optional<std::vector<u8>> ServeStream::next_frame() {
    auto frame = next_frame_slices();
    if (!frame) return std::nullopt;
    return frame->materialize();
}

std::optional<FrameSlices> ServeStream::next_frame_slices() {
    using Phase = detail::StreamState::Phase;
    detail::StreamState& st = *st_;
    // Per-frame latency: framing cost only, since the response already
    // exists; the distribution behind streamed tail-latency numbers.
    Stopwatch frame_clock;
    const auto emit = [&](FrameSlices frame) {
        if (st.h_frame != nullptr) st.h_frame->observe(frame_clock.seconds());
        return frame;
    };

    if (st.phase == Phase::header) {
        StreamHeader h;
        h.code = st.head.code;
        h.detail = st.head.detail;
        h.payload = st.head.payload;
        h.cache_hit = st.head.stats.cache_hit;
        h.coalesced = st.head.stats.coalesced;
        h.splits = st.head.stats.splits_served;
        h.wire_bytes = st.head.stats.wire_bytes;
        h.max_frame_bytes = st.opt.max_frame_bytes;
        st.phase = st.head.ok() ? Phase::body : Phase::finished;
        ++st.frames;
        // An error response is a single header frame: the stream ends here.
        if (st.phase == Phase::finished) st.server->record_stream_trace(st);
        return emit(stream_header_frame(h));
    }

    if (st.phase == Phase::body) {
        // The frame borrows its payload from the pieces.
        std::vector<format::ByteBuffer> payload;
        u64 len = 0;
        u64 owned = 0;
        while (len < st.frame_target() && !st.pieces.empty()) {
            const format::ByteBuffer& piece = st.pieces.front();
            if (!st.payload_phase && piece.borrowed()) {
                // Payload starts here. Flush the prefix as its own (small)
                // frame; an empty frame just grows the target.
                st.payload_phase = true;
                if (len != 0) break;
            }
            const std::size_t n = static_cast<std::size_t>(std::min<u64>(
                st.frame_target() - len, piece.size() - st.front_off));
            format::ByteBuffer slice = piece.slice(st.front_off, n);
            if (!slice.borrowed()) owned += n;
            payload.push_back(std::move(slice));
            len += n;
            st.advance(n);
        }
        if (len != 0) {
            // A long payload is hashed once: the FIN digest and the frame's
            // trailer fold its CRC in by combine. A short one is cheaper to
            // hash twice, into the digest here and into the trailer.
            std::optional<u32> crc;
            if (len >= format::kCrc32cCombineMinBytes) {
                crc = 0;
                for (const format::ByteBuffer& s : payload) crc = format::crc32c(s, *crc);
                st.digest = format::crc32c_combine(st.digest, *crc, len);
            } else {
                for (const format::ByteBuffer& s : payload)
                    st.digest = format::crc32c(s, st.digest);
            }
            st.emitted_payload += len;
            st.peak_owned = std::max(st.peak_owned, st.owned_left + owned);
            ++st.frames;
            return emit(stream_body_frame(st.seq++, std::move(payload), crc,
                                          st.opt.max_frame_bytes));
        }
        st.phase = Phase::fin;  // exhausted: fall through to the FIN
    }

    if (st.phase == Phase::fin) {
        StreamFin fin;
        fin.code = ErrorCode::ok;
        fin.body_frames = st.seq;
        fin.splits = st.head.stats.splits_served;
        fin.wire_checksum = st.digest;
        st.phase = Phase::finished;
        ++st.frames;
        st.server->record_stream_trace(st);
        return emit(stream_fin_frame(fin));
    }

    return std::nullopt;
}

// ---- ContentServer ----

ContentServer::ContentServer(ServerOptions opt)
    : opt_(std::move(opt)),
      cache_(opt_.cache_capacity_bytes),
      governor_(store_, cache_, GovernorOptions{opt_.mem_budget_bytes}),
      slow_log_(opt_.slow_log_slots, opt_.slow_log_slots) {
    init_telemetry();
}

void ContentServer::init_telemetry() {
    using obs::MetricKind;
    // The serve totals as polled callbacks over the same stripes totals()
    // sums — registered regardless of the telemetry knob: polling costs
    // nothing until someone snapshots.
    const auto poll = [this](Total t) {
        return [this, t] { return totals_.value(t); };
    };
    metrics_.register_callback("serve_requests_total", MetricKind::counter,
                               poll(kRequests));
    metrics_.register_callback("serve_failures_total", MetricKind::counter,
                               poll(kFailures));
    metrics_.register_callback("serve_cache_hits_total", MetricKind::counter,
                               poll(kCacheHits));
    metrics_.register_callback("serve_range_requests_total",
                               MetricKind::counter, poll(kRangeRequests));
    metrics_.register_callback("serve_streamed_requests_total",
                               MetricKind::counter, poll(kStreamedRequests));
    metrics_.register_callback("serve_wire_bytes_total", MetricKind::counter,
                               poll(kWireBytes));
    metrics_.register_callback("serve_coalesced_requests_total",
                               MetricKind::counter, poll(kCoalesced));
    metrics_.register_callback("serve_bytes_saved_total", MetricKind::counter,
                               poll(kBytesSaved));
    metrics_.register_callback("serve_governance_failures_total",
                               MetricKind::counter, poll(kGovernanceFailures));
    metrics_.register_callback(
        "serve_coalescing_waiters", MetricKind::gauge,
        [this] { return waiters_.load(std::memory_order_relaxed); });
    // Execution-substrate gauge: which SIMD backend dispatch selected
    // (0=scalar 1=avx2 2=avx512), polled at snapshot time.
    metrics_.register_callback("simd_backend", MetricKind::gauge, [] {
        return static_cast<u64>(simd::pick_backend());
    });
    cache_.bind_metrics(&metrics_);
    governor_.bind_metrics(&metrics_);
    store_.bind_metrics(&metrics_);
    sample_mask_ =
        opt_.sample_every > 1 && std::has_single_bit(u64{opt_.sample_every})
            ? u64{opt_.sample_every} - 1
            : 0;
    if (!opt_.telemetry) return;
    h_request_ = &metrics_.histogram("serve_request_seconds");
    h_prepare_ = &metrics_.histogram("serve_prepare_seconds");
    h_decode_ = &metrics_.histogram("serve_decode_seconds");
    h_hit_ = &metrics_.histogram("serve_hit_seconds");
    h_combine_ = &metrics_.histogram("serve_combine_seconds");
    h_frame_ = &metrics_.histogram("stream_frame_seconds");
    h_govern_ = &metrics_.histogram("governor_pass_seconds");
}

ServeResult ContentServer::serve(const ServeRequest& req) noexcept {
    const u64 tick = totals_.add(kRequests);
    obs::TraceContext trace = sample_tick(tick)
                                  ? obs::TraceContext("serve", req.asset)
                                  : obs::TraceContext();
    const u64 start_ns = steady_now_ns();
    ServeResult res;
    try {
        res = serve_impl(req, trace, start_ns);
    } catch (const ProtocolError& e) {
        res = fail(e.code(), e.what());
    } catch (const std::exception& e) {
        res = fail(ErrorCode::internal, e.what());
    }
    res.stats.total_seconds =
        static_cast<double>(steady_now_ns() - start_ns) * 1e-9;
    // Histograms ride the sampling decision (trace.active()), so the
    // distributions describe exactly the sampled requests.
    if (trace.active() && h_request_ != nullptr)
        h_request_->observe(res.stats.total_seconds);
    if (res.ok()) {
        count_served(res.stats);
        if (res.stats.cache_hit && trace.active() && h_hit_ != nullptr)
            h_hit_->observe(res.stats.total_seconds);
    } else {
        totals_.add(kFailures);
    }
    finish_trace(trace, res);
    // The request may have demand-loaded an asset or grown the cache; if
    // the global budget is now exceeded, relieve the pressure before the
    // next request piles on.
    maybe_govern();
    return res;
}

void ContentServer::count_served(const ServeStats& stats) noexcept {
    totals_.add(kWireBytes, stats.wire_bytes);
    if (stats.cache_hit) {
        totals_.add(kCacheHits);
        totals_.add(kBytesSaved, stats.wire_bytes);
    }
    if (stats.coalesced) {
        totals_.add(kCoalesced);
        totals_.add(kBytesSaved, stats.wire_bytes);
    }
}

void ContentServer::finish_trace(const obs::TraceContext& trace,
                                 const ServeResult& res) {
    if (!trace.active()) return;
    const bool failed = !res.ok();
    if (!slow_log_.interesting(res.stats.total_seconds, failed)) return;
    obs::TraceRecord rec;
    rec.id = trace.id();
    rec.op = trace.op();
    rec.asset = trace.asset();
    rec.failed = failed;
    rec.code = static_cast<u16>(res.code);
    rec.code_name = error_name(res.code);
    rec.detail = res.detail;
    rec.cache_hit = res.stats.cache_hit;
    rec.total_seconds = res.stats.total_seconds;
    rec.wire_bytes = res.stats.wire_bytes;
    rec.spans = trace.spans();
    slow_log_.record(std::move(rec));
}

void ContentServer::record_stream_trace(const detail::StreamState& st) {
    if (!st.trace.active()) return;
    // The response exists before the first frame, so a stream can only
    // fail at the head (a typed error header).
    const bool failed = !st.head.ok();
    const ErrorCode code = st.head.code;
    const double total = st.trace.elapsed();
    if (!slow_log_.interesting(total, failed)) return;
    obs::TraceRecord rec;
    rec.id = st.trace.id();
    rec.op = st.trace.op();
    rec.asset = st.trace.asset();
    rec.failed = failed;
    rec.code = static_cast<u16>(code);
    rec.code_name = error_name(code);
    rec.detail = st.head.detail;
    rec.cache_hit = st.head.stats.cache_hit;
    rec.total_seconds = total;
    rec.wire_bytes = st.emitted_payload;
    rec.spans = st.trace.spans();
    slow_log_.record(std::move(rec));
}

void ContentServer::maybe_govern() noexcept {
    try {
        // pressure_actionable (not just over_budget): when a pass already
        // proved it cannot relieve the pressure (all residents pinned,
        // unbacked, or in use), re-running it per request would serialize
        // the serve path behind futile O(residents) scans.
        if (governor_.pressure_actionable()) {
            Stopwatch pass;
            governor_.enforce();
            if (h_govern_ != nullptr) h_govern_->observe(pass.seconds());
        }
    } catch (const ProtocolError& e) {
        note_governance_failure(static_cast<u16>(e.code()),
                                error_name(e.code()), e.what());
    } catch (const StoreError& e) {
        note_governance_failure(
            static_cast<u16>(e.status()),
            std::string("store:") + store_status_name(e.status()), e.what());
    } catch (const std::exception& e) {
        note_governance_failure(0, "exception", e.what());
    } catch (...) {
        note_governance_failure(0, "unknown", "governance pass failed");
    }
}

void ContentServer::note_governance_failure(u16 code, std::string code_name,
                                            std::string detail) noexcept {
    // Governance is best-effort relief; a failed pass (allocation
    // exhaustion under the very pressure it relieves, or a cache
    // invariant tripping) must not take a serve path down with it — but it
    // must not vanish either: the counter surfaces in Totals, and the slow
    // log keeps WHAT failed as a structured event with the typed code.
    totals_.add(kGovernanceFailures);
    if (!opt_.telemetry) return;
    try {
        obs::TraceRecord rec;
        rec.id = obs::next_trace_id();
        rec.op = "governance";
        rec.failed = true;
        rec.code = code;
        rec.code_name = std::move(code_name);
        rec.detail = std::move(detail);
        slow_log_.record(std::move(rec));
    } catch (...) {
        // Telemetry must never finish what the governance failure started.
    }
}

ContentServer::Prepared ContentServer::prepare(const ServeRequest& req,
                                               u64 start_ns) {
    auto asset = store_.resolve(req.asset);
    if (asset == nullptr)
        throw ProtocolError(ErrorCode::unknown_asset,
                            "serve: unknown asset '" + req.asset + "'");
    governor_.note_access(*asset, start_ns);  // recency for pressure unloads

    Prepared p;
    p.asset = std::move(asset);
    p.start_ns = start_ns;
    if (req.range) {
        totals_.add(kRangeRequests);
        if ((req.accept & kAcceptRange) == 0)
            throw ProtocolError(ErrorCode::not_acceptable,
                                "serve: client does not accept range wires");
        // Boundary validation with a typed error, not an invariant throw
        // from plan_range deep inside the wire builder.
        const auto [lo, hi] = *req.range;
        if (lo >= hi || hi > p.asset->num_symbols())
            throw ProtocolError(
                ErrorCode::invalid_range,
                "serve: range [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + ") outside asset of " +
                    std::to_string(p.asset->num_symbols()) + " symbols");
        p.range = req.range;
        p.key = range_key(*p.asset, lo, hi);
        p.parallelism = 0;
        p.payload = PayloadKind::range;
    } else {
        const u8 need = p.asset->payload_kind() == PayloadKind::chunked
                            ? kAcceptChunked
                            : kAcceptFile;
        if ((req.accept & need) == 0)
            throw ProtocolError(
                ErrorCode::not_acceptable,
                std::string("serve: client does not accept ") +
                    payload_name(p.asset->payload_kind()) + " responses");
        p.parallelism =
            std::clamp(req.parallelism, u32{1}, p.asset->max_parallelism());
        p.key = asset_key(*p.asset);
        p.payload = p.asset->payload_kind();
    }
    return p;
}

u32 ContentServer::produce(const Prepared& p, WirePieces& pieces,
                           obs::TraceContext* trace) {
    if (opt_.combine_hook) opt_.combine_hook(p.key);
    obs::TraceContext::Scoped span(trace, "combine", h_combine_);
    PieceSink sink(pieces);
    if (p.range)
        return p.asset->range_into(p.range->first, p.range->second, sink);
    return p.asset->combine_into(p.parallelism, sink);
}

ServeResult ContentServer::serve_impl(const ServeRequest& req,
                                      obs::TraceContext& trace,
                                      u64 start_ns) {
    // Only a stream can start mid-wire; the wire decoder refuses the same
    // request for the same reason.
    if (req.resume_offset != 0)
        throw ProtocolError(ErrorCode::bad_request,
                            "serve: resume offset without a streamed response");
    const Prepared p = [&] {
        auto span = trace.span("prepare", h_prepare_);
        return prepare(req, start_ns);
    }();
    ServeResult res;
    res.payload = p.payload;
    ServedWire served = serve_shared(p, res.stats, &trace);
    res.wire = std::move(served.wire);
    // Every served wire ends in its own CRC32C trailer, so its CRC costs 8
    // bytes of hashing, not a pass over the wire.
    res.wire_crc = format::wire::sealed_wire_crc(*res.wire);
    assert(*res.wire_crc == format::crc32c(*res.wire));
    res.stats.splits_served = served.splits;
    res.stats.wire_bytes = res.wire->size();
    res.code = ErrorCode::ok;
    return res;
}

bool ContentServer::acquire_flight(const std::string& flight_key,
                                   std::shared_ptr<Flight>& flight) {
    util::MutexLock lk(flights_mu_);
    auto& slot = flights_[flight_key];
    if (slot == nullptr) {
        slot = std::make_shared<Flight>();
        flight = slot;
        return true;
    }
    flight = slot;
    return false;
}

ServedWire ContentServer::serve_shared(const Prepared& p, ServeStats& stats,
                                       obs::TraceContext* trace,
                                       WirePieces* pieces) {
    {
        obs::TraceContext::Scoped span(trace, "cache_lookup", nullptr);
        u32 splits = 0;
        if (WireBytes wire =
                cache_.get(p.key, p.parallelism, &splits, p.start_ns)) {
            stats.cache_hit = true;
            return {std::move(wire), splits};
        }
    }

    // Single-flight: the first request for a key becomes the leader and
    // combines; concurrent requests (materialized or streamed) park on the
    // flight and share its wire.
    const std::string flight_key =
        p.key + "\nflight:" + std::to_string(p.parallelism);
    std::shared_ptr<Flight> flight;
    const bool leader = acquire_flight(flight_key, flight);

    if (!leader) {
        obs::TraceContext::Scoped span(trace, "coalesce_wait", nullptr);
        waiters_.fetch_add(1, std::memory_order_relaxed);
        util::MutexLock lk(flight->mu);
        while (!flight->done) flight->cv.wait(flight->mu);
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        // A fresh exception per follower; the flight's fields are immutable
        // once done, so concurrent reads need no further synchronization.
        if (flight->failed)
            throw ProtocolError(flight->error_code, flight->error_detail);
        stats.coalesced = true;
        return flight->wire;
    }

    // Won the flight — but the previous leader may have populated the cache
    // between our miss and the flight insert (put happens before the flight
    // retires). Recheck before paying for a combine, and publish the cached
    // wire to any followers already parked on this flight.
    u32 cached_splits = 0;
    if (WireBytes cached =
            cache_.get(p.key, p.parallelism, &cached_splits, p.start_ns)) {
        ServedWire wire{std::move(cached), cached_splits};
        retire_flight(flight_key, flight, &wire, ErrorCode::ok, {});
        stats.cache_hit = true;
        return wire;
    }

    ServedWire wire;
    WirePieces produced;
    Stopwatch combine;
    try {
        wire.splits = produce(p, produced, trace);
        wire.wire = concat(produced);
        stats.combine_seconds = combine.seconds();
        // Publish to the cache before retiring the flight, so a request
        // arriving between the two hits the cache instead of recombining.
        // Inside the try: a put failure must retire the flight too, or
        // followers park forever. Gated on the asset still being current:
        // evict_asset() during the combine already purged this key's
        // entries, and an ungated put would resurrect a wire for a deleted
        // (or replaced) asset — stale bytes pinned until LRU pressure. The
        // flight itself still returns the wire: those requests began before
        // the eviction. (An eviction landing between the gate and the put
        // can still slip a dying entry in; its uid-scoped key can never be
        // served for the successor, so the cost is transient bytes, not
        // staleness.)
        if (store_.is_current(*p.asset))
            cache_.put(p.key, p.parallelism, wire.wire, wire.splits);
    } catch (const ProtocolError& e) {
        retire_flight(flight_key, flight, nullptr, e.code(), e.what());
        throw;
    } catch (const std::exception& e) {
        retire_flight(flight_key, flight, nullptr, ErrorCode::internal,
                      e.what());
        throw;
    } catch (...) {
        retire_flight(flight_key, flight, nullptr, ErrorCode::internal,
                      "combine failed");
        throw;
    }
    retire_flight(flight_key, flight, &wire, ErrorCode::ok, {});
    if (pieces != nullptr) *pieces = std::move(produced);
    return wire;
}

void ContentServer::retire_flight(const std::string& flight_key,
                                  const std::shared_ptr<Flight>& flight,
                                  const ServedWire* wire, ErrorCode error_code,
                                  std::string error_detail) {
    {
        util::MutexLock lk(flights_mu_);
        flights_.erase(flight_key);
    }
    {
        util::MutexLock fl(flight->mu);
        if (wire != nullptr) {
            flight->wire = *wire;
        } else {
            flight->failed = true;
            flight->error_code = error_code;
            flight->error_detail = std::move(error_detail);
        }
        flight->done = true;
    }
    flight->cv.notify_all();
}

ServeStream ContentServer::serve_stream(const ServeRequest& req,
                                        StreamOptions opt) noexcept {
    const u64 tick = totals_.add(kRequests);
    totals_.add(kStreamedRequests);
    if (opt.max_frame_bytes == 0) opt.max_frame_bytes = kDefaultMaxFrameBytes;
    if (opt.prefix_frame_bytes == 0)
        opt.prefix_frame_bytes = kDefaultPrefixFrameBytes;
    opt.prefix_frame_bytes = std::min(opt.prefix_frame_bytes,
                                      opt.max_frame_bytes);

    auto st = std::make_unique<detail::StreamState>();
    st->server = this;
    st->opt = opt;
    if (sample_tick(tick)) {
        st->trace = obs::TraceContext("stream", req.asset);
        st->h_frame = h_frame_;
    }
    ServeStats& stats = st->head.stats;
    try {
        if ((req.accept & kAcceptStreamed) == 0)
            throw ProtocolError(
                ErrorCode::not_acceptable,
                "serve: client does not accept streamed responses");
        const Prepared p = [&] {
            auto span = st->trace.span("prepare", h_prepare_);
            return prepare(req, steady_now_ns());
        }();
        st->head.payload = p.payload;
        if (opt.use_cache) {
            // Cache hit, follower or leader: one path with serve(). Only a
            // leader gets the combine's pieces; everyone else frames the
            // shared wire as a single borrowed piece.
            ServedWire served = serve_shared(p, stats, &st->trace, &st->pieces);
            stats.splits_served = served.splits;
            if (st->pieces.empty())
                st->pieces.push_back(format::ByteBuffer::view(
                    std::span<const u8>(*served.wire), served.wire));
        } else {
            // Solo: keep only the piece list, never a materialized wire.
            Stopwatch combine;
            stats.splits_served = produce(p, st->pieces, &st->trace);
            stats.combine_seconds = combine.seconds();
        }
        for (const format::ByteBuffer& piece : st->pieces) {
            stats.wire_bytes += piece.size();
            if (!piece.borrowed()) st->owned_left += piece.size();
        }
        if (req.resume_offset > stats.wire_bytes)
            throw ProtocolError(
                ErrorCode::invalid_range,
                "serve: resume offset " + std::to_string(req.resume_offset) +
                    " past the " + std::to_string(stats.wire_bytes) +
                    "-byte wire");
        st->asset = p.asset;
        st->peak_owned = st->owned_left;
        st->head.code = ErrorCode::ok;
        count_served(stats);
        st->seek(req.resume_offset);
    } catch (const ProtocolError& e) {
        totals_.add(kFailures);
        st->pieces.clear();
        st->head = fail(e.code(), e.what());
    } catch (const std::exception& e) {
        totals_.add(kFailures);
        st->pieces.clear();
        st->head = fail(ErrorCode::internal, e.what());
    }
    // Production may have demand-loaded an asset or grown the cache.
    maybe_govern();
    return ServeStream(std::move(st));
}

std::vector<u8> ContentServer::serve_frame(
    std::span<const u8> request_frame) noexcept {
    try {
        return serve_frame_slices(request_frame).materialize();
    } catch (...) {
        // Materializing can only fail on allocation exhaustion; an empty
        // frame (rejected by any decoder) beats terminating the server.
        return {};
    }
}

FrameSlices ContentServer::serve_frame_slices(
    std::span<const u8> request_frame) noexcept {
    try {
        ServeRequest req;
        try {
            Stopwatch decode;
            req = decode_request(request_frame);
            if (h_decode_ != nullptr) h_decode_->observe(decode.seconds());
        } catch (const ProtocolError& e) {
            totals_.add(kRequests);
            totals_.add(kFailures);
            return response_frame(fail(e.code(), e.what()));
        }
        // Reserved "!..." names are introspection, answered from the
        // registry — never from the store (a leading '!' is not a legal
        // store name, so no real asset is shadowed).
        if (!req.asset.empty() && req.asset[0] == '!')
            return response_frame(serve_introspection(req));
        return response_frame(serve(req));
    } catch (...) {
        // Building the frame can only fail on allocation exhaustion; an
        // empty frame (rejected by any decoder) beats terminating the
        // server.
        return {};
    }
}

ServeResult ContentServer::serve_introspection(
    const ServeRequest& req) noexcept {
    totals_.add(kRequests);
    ServeResult res;
    try {
        if ((req.accept & kAcceptMetrics) == 0)
            throw ProtocolError(
                ErrorCode::not_acceptable,
                "serve: introspection requires the metrics accept bit");
        std::string body;
        if (req.asset == kMetricsAssetText)
            body = metrics_.snapshot().to_prometheus();
        else if (req.asset == kMetricsAssetJson)
            body = metrics_.snapshot().to_json();
        else
            throw ProtocolError(
                ErrorCode::unknown_asset,
                "serve: unknown introspection target '" + req.asset + "'");
        res.code = ErrorCode::ok;
        res.payload = PayloadKind::metrics;
        res.wire = share(std::vector<u8>(body.begin(), body.end()));
        res.wire_crc = format::crc32c(*res.wire);  // no trailer to read it off
        res.stats.wire_bytes = res.wire->size();
    } catch (const ProtocolError& e) {
        totals_.add(kFailures);
        res = fail(e.code(), e.what());
    } catch (const std::exception& e) {
        totals_.add(kFailures);
        res = fail(ErrorCode::internal, e.what());
    }
    return res;
}

bool ContentServer::evict_asset(const std::string& name) {
    cache_.erase_asset(name);
    return store_.erase(name);
}

ContentServer::Totals ContentServer::totals() const noexcept {
    Totals t;
    t.requests = totals_.value(kRequests);
    t.failures = totals_.value(kFailures);
    t.cache_hits = totals_.value(kCacheHits);
    t.range_requests = totals_.value(kRangeRequests);
    t.streamed_requests = totals_.value(kStreamedRequests);
    t.wire_bytes = totals_.value(kWireBytes);
    t.coalesced_requests = totals_.value(kCoalesced);
    t.bytes_saved = totals_.value(kBytesSaved);
    t.governance_failures = totals_.value(kGovernanceFailures);
    return t;
}

}  // namespace recoil::serve
