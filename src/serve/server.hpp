#pragma once
// Front door of the serve subsystem: ContentServer resolves requests against
// the AssetStore, adapts split metadata per client (§3.3) through the LRU
// wire cache, and serves symbol sub-ranges via the range wire. Failures are
// typed (protocol.hpp ErrorCode), never thrown. Concurrent cold requests for
// the same response are single-flighted: one combine runs, everyone shares
// the resulting wire. serve_frame() is the transport boundary — opaque
// request frame in, response frame out — so a network frontend needs no
// knowledge of assets or caching. serve_frame_slices() is the same entry
// without the materializing copy: the daemon sends its slices as they are.
//
// serve_stream() is the streamed side of the same pipeline: it produces the
// whole response once, when called, as the asset's WireSink pieces (small
// owned structural sections plus borrowed views of the payload), and the
// returned ServeStream is a cursor that frames those pieces as v2 streamed
// messages. Cacheable streams share serve()'s cache, single-flight and
// combine path; solo streams keep only the piece list, so owned memory stays
// at the structural sections. One producer implementation, two framings.

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/asset_store.hpp"
#include "serve/governor.hpp"
#include "serve/metadata_cache.hpp"
#include "serve/protocol.hpp"
#include "util/striped_counter.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::serve {

struct ServerOptions {
    u64 cache_capacity_bytes = u64{256} << 20;
    /// Global memory budget over cache bytes + resident store bytes; when
    /// exceeded, the resource governor unloads cold demand-loadable assets
    /// (and shrinks the cache if that is not enough). 0 disables.
    u64 mem_budget_bytes = 0;
    /// Observability/test hook: invoked (if set) with the cache key at the
    /// start of every miss combine (materialized or streamed), before the
    /// wire is built.
    std::function<void(const std::string&)> combine_hook;
    /// Hot-path telemetry: per-phase latency histograms, request traces and
    /// the slow-request log. Off, those record nothing (the overhead knob
    /// bench_serve measures against); the metrics REGISTRY itself stays live
    /// either way — counters/gauges are polled callbacks over stats the
    /// server maintains regardless, so snapshots keep working.
    bool telemetry = true;
    /// Take the TIMED telemetry path (trace spans, per-phase histograms,
    /// slow-log consideration) for 1 of every N requests. 1 (default) =
    /// full fidelity: every request is traced, at an absolute cost of a few
    /// clock reads (~150 ns) per request — negligible unless warm hits are
    /// themselves sub-microsecond. For that in-process regime set 32+: the
    /// amortized cost drops under the 2% warm-hit budget bench_serve
    /// enforces, histograms/slow-log then describe the sampled subset, and
    /// every counter/gauge stays exact (they are never sampled).
    u32 sample_every = 1;
    /// Retention of the slow-request log: N slowest + N most recent failed.
    std::size_t slow_log_slots = 32;
};

/// Default ceiling for frames carrying the metadata-dense structural prefix
/// (StreamOptions::prefix_frame_bytes).
inline constexpr u64 kDefaultPrefixFrameBytes = u64{8} << 10;

/// Per-stream knobs of serve_stream(), negotiated per connection.
struct StreamOptions {
    /// Body-frame payload ceiling; frames over it are never produced
    /// (encode-side frame_too_large enforcement happens below this).
    u64 max_frame_bytes = kDefaultMaxFrameBytes;
    /// When false the stream never materializes a wire: it keeps only the
    /// producer's piece list, so owned memory stays at the structural
    /// sections (payload pieces are borrowed views) — the regime for
    /// responses too large to be worth caching. Such streams do not
    /// coalesce (nothing shareable is built) and do not consult the cache.
    bool use_cache = true;
    /// Payload ceiling of the frames carrying the metadata-dense structural
    /// prefix (header, model, split plan — owned pieces), so a client can
    /// start planning its decode early; the frame that would first carry
    /// borrowed payload bytes flushes the prefix, and payload frames run at
    /// max_frame_bytes. Cache-hit and coalesced-follower replays are one
    /// borrowed piece, so they run at max_frame_bytes from the first byte.
    /// Reassembly is framing-agnostic, so the wire stays bit-exact for any
    /// ceiling. Clamped down to max_frame_bytes.
    u64 prefix_frame_bytes = kDefaultPrefixFrameBytes;
};

namespace detail {
struct StreamState;
struct Flight;
}  // namespace detail

/// A streamed response: pull protocol frames one at a time (header frame,
/// body frames, FIN frame, then nullopt). The response was produced in full
/// by serve_stream(), so next_frame() never blocks: it only frames the next
/// slice of the piece list. The stream pins its asset (and therefore every
/// mmapped buffer its pieces view), so unload()/evict() mid-stream never
/// invalidates in-flight pieces. Must not outlive the ContentServer that
/// created it.
class ServeStream {
public:
    ~ServeStream();
    ServeStream(ServeStream&&) noexcept;
    ServeStream& operator=(ServeStream&&) noexcept;
    ServeStream(const ServeStream&) = delete;
    ServeStream& operator=(const ServeStream&) = delete;

    /// Status + stats of the response (splits and wire_bytes included);
    /// `wire` is always null.
    const ServeResult& head() const noexcept;
    /// The next protocol frame as slices, or nullopt once the stream is
    /// complete. An error response is a single header frame. Body frames
    /// borrow their payload from the stream's pieces (the slices keep it
    /// alive), so framing copies no payload and hashes each byte once.
    std::optional<FrameSlices> next_frame_slices();
    /// next_frame_slices(), materialized into one vector.
    std::optional<std::vector<u8>> next_frame();
    bool done() const noexcept;
    u64 frames_emitted() const noexcept;
    /// High-water mark of owned bytes the stream held at once (owned
    /// structural pieces not yet sent + the owned part of the frame under
    /// construction).
    /// Payload views pinning existing asset storage cost no new memory and
    /// are excluded; this is the number the bench compares against wire
    /// size.
    u64 peak_owned_bytes() const noexcept;

private:
    friend class ContentServer;
    explicit ServeStream(std::unique_ptr<detail::StreamState> st);
    std::unique_ptr<detail::StreamState> st_;
};

namespace detail {

/// In-flight combine shared by coalesced requests for one response key.
/// Failures are published as a typed (code, detail) pair, NOT a shared
/// exception_ptr: rethrowing one exception object from many followers
/// lets one thread's catch-scope destruction race another's what() read
/// (caught by TSan). Each follower throws its own ProtocolError built
/// from the immutable-after-done fields.
struct Flight {
    util::Mutex mu;
    util::CondVar cv;
    bool done RECOIL_GUARDED_BY(mu) = false;
    ServedWire wire RECOIL_GUARDED_BY(mu);
    bool failed RECOIL_GUARDED_BY(mu) = false;
    ErrorCode error_code RECOIL_GUARDED_BY(mu) = ErrorCode::internal;
    std::string error_detail RECOIL_GUARDED_BY(mu);
};

}  // namespace detail

class ContentServer {
public:
    explicit ContentServer(ServerOptions opt = {});

    AssetStore& store() noexcept { return store_; }
    MetadataCache& cache() noexcept { return cache_; }
    /// The resource governor over this server's store + cache (disabled —
    /// never unloading — unless ServerOptions::mem_budget_bytes is set).
    /// pin()/unpin() protect per-class hot assets from pressure unloads.
    ResourceGovernor& governor() noexcept { return governor_; }
    /// Unified telemetry directory: one snapshot() covers the four serve
    /// subsystems (server totals, cache, governor, stores) plus the
    /// per-phase latency histograms. Always live — see
    /// ServerOptions::telemetry for what the knob does and does not gate.
    obs::MetricsRegistry& metrics() noexcept { return metrics_; }
    /// The N slowest and N most recent failed requests, as structured trace
    /// events (populated only with ServerOptions::telemetry on).
    const obs::SlowRequestLog& slow_log() const noexcept { return slow_log_; }

    /// Serve one request. Never throws: failures come back as a typed
    /// ErrorCode, so a failing request cannot tear down its caller's thread
    /// (a daemon loop, or any thread calling in directly). Assets
    /// not resident in memory are demand-loaded from the attached backing
    /// store (AssetStore::resolve) as zero-copy views of the mapped master.
    /// A nonzero ServeRequest::resume_offset is a typed bad_request: only
    /// serve_stream resumes.
    ServeResult serve(const ServeRequest& req) noexcept;

    /// Serve one request as a pull-based stream of v2 frames. Requires the
    /// request to accept the streamed framing (kAcceptStreamed), on top of
    /// the payload form it would need for serve(). Never throws; failures
    /// are a single typed header frame. The response is produced here, on
    /// the calling thread: cacheable streams go through serve()'s cache and
    /// single-flight path (a follower waits on the leader's combine, then
    /// replays the shared wire), solo streams combine into a piece list.
    /// A nonzero ServeRequest::resume_offset resumes an interrupted stream:
    /// the same deterministic wire is framed from that byte on, the skipped
    /// prefix hashed into the FIN's whole-wire checksum, body sequencing
    /// restarting at 0 (a client that kept its StreamReassembler and called
    /// begin_resume() reunites the wire bit-exactly). An offset past the
    /// wire is a typed invalid_range header; an offset equal to the wire
    /// size is a header and then the FIN.
    ServeStream serve_stream(const ServeRequest& req,
                             StreamOptions opt = {}) noexcept;

    /// Transport entry: parse a request frame, serve it, return the response
    /// frame as slices (owned header and trailer around the borrowed cached
    /// wire, which is neither copied nor re-hashed). Malformed frames become
    /// typed error responses.
    FrameSlices serve_frame_slices(std::span<const u8> request_frame) noexcept;
    /// serve_frame_slices(), materialized into one vector.
    std::vector<u8> serve_frame(std::span<const u8> request_frame) noexcept;

    /// Remove an asset (memory AND backing store) and every cached response
    /// derived from it. A combine already in flight for the evicted asset
    /// still completes for its waiting requests, but its wire is gated out
    /// of the cache (AssetStore::is_current), so eviction is never undone by
    /// a straggling flight. In-flight streams keep serving: they pin the
    /// asset's buffers.
    bool evict_asset(const std::string& name);

    /// Drop an asset from memory but keep it in the backing store: the next
    /// request demand-loads it under the same generation, so its cached
    /// responses stay valid. Memory-pressure relief, not eviction.
    bool unload_asset(const std::string& name) { return store_.unload(name); }

    /// Requests currently parked on another request's in-flight combine.
    u64 coalescing_waiters() const noexcept {
        return waiters_.load(std::memory_order_relaxed);
    }

    struct Totals {
        u64 requests = 0;
        u64 failures = 0;
        u64 cache_hits = 0;
        u64 range_requests = 0;
        u64 streamed_requests = 0;  ///< served through serve_stream
        u64 wire_bytes = 0;
        /// Requests served by waiting on an in-flight combine (single-flight
        /// coalescing): N concurrent cold misses run N-1 fewer combines.
        u64 coalesced_requests = 0;
        /// Wire bytes delivered from shared buffers (cache hits + coalesced)
        /// rather than freshly combined — work the protocol design saved.
        u64 bytes_saved = 0;
        /// Governance passes that threw (swallowed so the serve path
        /// lives). Nonzero means pressure relief is failing — investigate.
        u64 governance_failures = 0;
    };
    Totals totals() const noexcept;

private:
    friend class ServeStream;  // stream trace recording
    using Flight = detail::Flight;
    using WirePieces = std::deque<format::ByteBuffer>;

    /// A validated request, ready to produce: shared by the materializing
    /// and streaming paths so negotiation/validation cannot diverge.
    struct Prepared {
        std::shared_ptr<const Asset> asset;
        /// steady_now_ns() at the request's start: the access stamp for
        /// the governor's recency and the cache's read buffer.
        u64 start_ns = 0;
        std::string key;       ///< response cache key
        u32 parallelism = 0;   ///< clamped; 0 for range requests
        PayloadKind payload = PayloadKind::none;
        std::optional<std::pair<u64, u64>> range;
    };
    /// Resolve + validate + negotiate. Throws ProtocolError (typed) on any
    /// failure; counts the request in the range total when applicable.
    Prepared prepare(const ServeRequest& req, u64 start_ns);
    /// A miss combine: run the combine_hook, then the prepared production
    /// into `pieces` under a "combine" span; returns the splits carried.
    u32 produce(const Prepared& p, WirePieces& pieces,
                obs::TraceContext* trace);

    ServeResult serve_impl(const ServeRequest& req, obs::TraceContext& trace,
                           u64 start_ns);
    /// Cache lookup + single-flight combine for one response key. `asset`
    /// is the asset the key was derived from: after the combine, the wire
    /// enters the cache only if that asset is still current (the
    /// evict-during-flight stale-put gate). `trace` may be null (telemetry
    /// off): spans are then skipped but behavior is identical. When this
    /// caller runs the combine and `pieces` is non-null, the combine's piece
    /// list is moved into it (a streaming leader frames from the pieces);
    /// otherwise `pieces` stays empty and only the shared wire is returned.
    ServedWire serve_shared(const Prepared& p, ServeStats& stats,
                            obs::TraceContext* trace,
                            WirePieces* pieces = nullptr);
    /// Bump the totals for one successfully served response (serve() and
    /// serve_stream() alike).
    void count_served(const ServeStats& stats) noexcept;
    /// Insert-or-join the flight for `flight_key`. True when this caller
    /// is the leader (it must eventually retire the flight).
    bool acquire_flight(const std::string& flight_key,
                        std::shared_ptr<Flight>& flight)
        RECOIL_EXCLUDES(flights_mu_);
    /// Remove the flight from the map, publish its outcome (wire when
    /// non-null, else the typed failure) and wake every parked follower.
    /// Every leader exit path must end here, or followers block forever on
    /// a stranded flight.
    void retire_flight(const std::string& flight_key,
                       const std::shared_ptr<Flight>& flight,
                       const ServedWire* wire, ErrorCode error_code,
                       std::string error_detail) RECOIL_EXCLUDES(flights_mu_);
    /// Run a governance pass if the global budget is exceeded. Called at
    /// the end of every serve and stream production — the moments usage
    /// can have grown (demand-load, cache put).
    void maybe_govern() noexcept;
    /// Count a swallowed governance error AND log it as a structured slow-
    /// log failure event with the typed code attached (op "governance").
    void note_governance_failure(u16 code, std::string code_name,
                                 std::string detail) noexcept;
    /// Register the serve_* callback metrics, bind the subsystems, and
    /// (telemetry on) create the per-phase histograms.
    void init_telemetry();
    /// True when the request holding tick `tick` should take the timed path
    /// (active trace + histograms): telemetry on, and the 1-in-sample_every
    /// toss hits. The tick is the caller's stripe of the requests total
    /// (StripedCounter::add's return), so sampling adds zero extra atomics
    /// and a single thread samples ticks 0, N, 2N, ...; power-of-two rates
    /// (the sane choices) go through a divide-free mask.
    bool sample_tick(u64 tick) const noexcept {
        if (!opt_.telemetry) return false;
        if (opt_.sample_every <= 1) return true;
        if (sample_mask_ != 0) return (tick & sample_mask_) == 0;
        return tick % opt_.sample_every == 0;
    }
    /// Record a finished serve() into the slow-request log when it
    /// qualifies (slow enough, or failed).
    void finish_trace(const obs::TraceContext& trace, const ServeResult& res);
    /// Record a finished stream (FIN emitted or error header) likewise.
    void record_stream_trace(const detail::StreamState& st);
    /// Answer a "!metrics"/"!metrics.json" introspection request against
    /// the registry (requires kAcceptMetrics; typed errors otherwise).
    ServeResult serve_introspection(const ServeRequest& req) noexcept;

    ServerOptions opt_;
    AssetStore store_;
    MetadataCache cache_;
    ResourceGovernor governor_;
    util::Mutex flights_mu_;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
        RECOIL_GUARDED_BY(flights_mu_);
    /// Requests parked on an in-flight combine: a relaxed atomic gauge (the
    /// documented lock-free escape), touched only on the coalescing path.
    std::atomic<u64> waiters_{0};
    /// Indices into totals_, one per Totals counter.
    enum Total : std::size_t {
        kRequests,
        kFailures,
        kCacheHits,
        kRangeRequests,
        kStreamedRequests,
        kWireBytes,
        kCoalesced,
        kBytesSaved,
        kGovernanceFailures,
        kTotalCount
    };
    /// The serve totals, striped per thread so concurrent requests bump
    /// their own cache lines (relaxed atomics: the documented lock-free
    /// escape; totals()/metrics callbacks sum the stripes without a lock).
    util::StripedCounter<kTotalCount> totals_;
    u64 sample_mask_ = 0;  ///< sample_every-1 when a power of two, else 0
    obs::MetricsRegistry metrics_;
    obs::SlowRequestLog slow_log_;
    /// Per-phase histograms, created by init_telemetry() when
    /// ServerOptions::telemetry is on; null otherwise, and every recording
    /// site checks — the whole hot-path cost of the off state is a few
    /// null tests.
    obs::Histogram* h_request_ = nullptr;  ///< serve_request_seconds
    obs::Histogram* h_prepare_ = nullptr;  ///< serve_prepare_seconds
    obs::Histogram* h_decode_ = nullptr;   ///< serve_decode_seconds
    obs::Histogram* h_hit_ = nullptr;      ///< serve_hit_seconds
    obs::Histogram* h_combine_ = nullptr;  ///< serve_combine_seconds
    obs::Histogram* h_frame_ = nullptr;    ///< stream_frame_seconds
    obs::Histogram* h_govern_ = nullptr;   ///< governor_pass_seconds
};

}  // namespace recoil::serve
