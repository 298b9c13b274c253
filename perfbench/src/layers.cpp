// The per-layer suite of a traced run. Each layer is timed from outside,
// around calls to its public functions, on the inputs of the workload that
// is running: rans and simd kernels single-threaded, the split decoder with
// its pool, metadata combine, container framing and checksum, the serve
// paths, the store and cache lookups, framing and streaming, and the socket.

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "conventional/conventional.hpp"
#include "core/metadata_codec.hpp"
#include "core/recoil_decoder.hpp"
#include "core/split_planner.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace recoil;
using serve::ServeRequest;
using serve::ServeResult;

namespace {

constexpr double kMinSeconds = 0.25;  // per timed quantity
constexpr int kMinReps = 3;
constexpr double kReplaySeconds = 1.0;
constexpr std::size_t kMaxProbeAssets = 32;

double median_of(const std::vector<double>& v) { return summarize(v).median; }

/// Summary of per-repetition seconds, in milliseconds.
Dist ms_dist(std::vector<double> secs) {
    for (double& s : secs) s *= 1e3;
    return summarize(std::move(secs));
}

/// One asset prepared for the decode layers: its decode tables, the
/// single-thread metadata (no splits) and the metadata of each class.
struct Prep {
    const SourceAsset* a = nullptr;
    std::optional<StaticModel> sm;
    std::optional<IndexedModelSet> im;
    DecodeTables t{};
    RecoilMetadata serial;
    RecoilMetadata cls[3];
    ConventionalEncoded<Rans32, 32> conv;
};

class DecodeLayers {
public:
    explicit DecodeLayers(const std::vector<const SourceAsset*>& assets) {
        for (const SourceAsset* a : assets) {
            auto p = std::make_unique<Prep>();
            p->a = a;
            if (a->width() == 1) {
                p->sm.emplace(a->file.build_static_model());
                p->t = p->sm->tables();
                p->conv = conventional_encode<Rans32, 32>(std::span<const u8>(a->bytes), *p->sm,
                                                          16);
                max8_ = std::max(max8_, a->bytes.size());
            } else {
                p->im.emplace(a->file.build_indexed_model());
                p->t = p->im->tables();
                p->conv = conventional_encode<Rans32, 32>(std::span<const u16>(a->words), *p->im,
                                                          16);
                max16_ = std::max(max16_, a->words.size());
            }
            p->serial = a->file.metadata;
            p->serial.splits.clear();
            for (int c = 0; c < 3; ++c)
                p->cls[c] = combine_splits(a->file.metadata, kClasses[c].splits);
            bytes_ += a->raw_bytes();
            preps_.push_back(std::move(p));
        }
        out8_.resize(max8_);
        out16_.resize(max16_);
    }

    u64 bytes() const noexcept { return bytes_; }
    const std::vector<std::unique_ptr<Prep>>& preps() const noexcept { return preps_; }

    /// Recoil-decodes every asset. `cls` < 0 selects the single-thread
    /// metadata. With `check`, returns the number of assets not decoded
    /// bit-exact.
    u64 recoil(int cls, bool simd, ThreadPool* pool, RecoilDecodeStats* st, bool check) {
        u64 bad = 0;
        for (const auto& p : preps_) {
            const RecoilMetadata& meta = cls < 0 ? p->serial : p->cls[cls];
            const std::span<const u16> units(p->a->file.units);
            if (p->a->width() == 1) {
                const std::span<u8> out(out8_.data(), p->a->bytes.size());
                if (simd)
                    recoil_decode_into<Rans32, 32, u8>(units, meta, p->t, out, pool, st,
                                                       simd::SimdRangeFn<u8>{});
                else
                    recoil_decode_into<Rans32, 32, u8>(units, meta, p->t, out, pool, st);
                bad += check && std::memcmp(out.data(), p->a->bytes.data(), out.size()) != 0;
            } else {
                const std::span<u16> out(out16_.data(), p->a->words.size());
                if (simd)
                    recoil_decode_into<Rans32, 32, u16>(units, meta, p->t, out, pool, st,
                                                        simd::SimdRangeFn<u16>{});
                else
                    recoil_decode_into<Rans32, 32, u16>(units, meta, p->t, out, pool, st);
                bad += check && std::memcmp(out.data(), p->a->words.data(), out.size() * 2) != 0;
            }
        }
        return bad;
    }

    /// Conventional-decodes every asset's 16-partition encoding.
    u64 conventional(ThreadPool* pool, bool check) {
        u64 bad = 0;
        for (const auto& p : preps_) {
            if (p->a->width() == 1) {
                const std::span<u8> out(out8_.data(), p->a->bytes.size());
                conventional_decode_into<Rans32, 32, u8>(p->conv, p->t, out, pool,
                                                         simd::SimdRangeFn<u8>{});
                bad += check && std::memcmp(out.data(), p->a->bytes.data(), out.size()) != 0;
            } else {
                const std::span<u16> out(out16_.data(), p->a->words.size());
                conventional_decode_into<Rans32, 32, u16>(p->conv, p->t, out, pool,
                                                          simd::SimdRangeFn<u16>{});
                bad += check && std::memcmp(out.data(), p->a->words.data(), out.size() * 2) != 0;
            }
        }
        return bad;
    }

private:
    std::vector<std::unique_ptr<Prep>> preps_;
    std::vector<u8> out8_;
    std::vector<u16> out16_;
    std::size_t max8_ = 0, max16_ = 0;
    u64 bytes_ = 0;
};

/// Runs `fn(true)` once untimed, which warms up and returns its mismatch
/// count, then times `fn(false)`; returns GB/s of `bytes` per call, median
/// over repetitions.
template <typename Fn>
double gbps_of(u64 bytes, Result& r, Fn&& fn) {
    ++r.attempted;
    r.mismatched += fn(true);
    const auto t = repeat_for(kMinSeconds, kMinReps, [&] { fn(false); });
    return bytes / median_of(t) / 1e9;
}

void decode_layers(const LayerInputs& in, Result& r) {
    const unsigned n = nproc();
    ThreadPool phone(2), wide(n);
    DecodeLayers d(in.assets);
    const u64 bytes = d.bytes();
    const double simd1 =
        gbps_of(bytes, r, [&](bool chk) { return d.recoil(-1, true, nullptr, nullptr, chk); });
    const double scalar1 =
        gbps_of(bytes, r, [&](bool chk) { return d.recoil(-1, false, nullptr, nullptr, chk); });
    double cls_gbps[3];
    for (int c = 0; c < 3; ++c)
        cls_gbps[c] = gbps_of(bytes, r, [&](bool chk) {
            return d.recoil(c, true, c == 0 ? &phone : &wide, nullptr, chk);
        });
    double sync[3];
    for (int c = 1; c < 3; ++c) {
        RecoilDecodeStats st;
        r.mismatched += d.recoil(c, true, &wide, &st, true);
        ++r.attempted;
        u64 symbols = 0;
        for (const auto& p : d.preps()) symbols += p->a->file.metadata.num_symbols;
        sync[c] = static_cast<double>(st.sync_symbols) / symbols;
    }
    const double conv = gbps_of(bytes, r, [&](bool chk) { return d.conventional(&wide, chk); });
    const std::string base = fmt("over %zu asset(s), %llu B", d.preps().size(),
                                 static_cast<unsigned long long>(bytes));
    r.add_layer("rans.decode_1t_gbps", scalar1, "GB/s", {}, "ScalarRangeFn, no pool, " + base);
    r.add_layer("simd.decode_1t_gbps", simd1, "GB/s", {},
                std::string(simd::backend_name(simd::pick_backend())) + ", no pool, " + base);
    for (int c = 0; c < 3; ++c)
        r.add_layer(std::string("core.decode_gbps.") + kClasses[c].name, cls_gbps[c], "GB/s", {},
                    fmt("%u splits, %u threads", kClasses[c].splits, c == 0 ? 2u : n));
    r.add_layer("core.sync_ratio.cpu", sync[1], "ratio", {}, "sync symbols / symbols");
    r.add_layer("core.sync_ratio.gpu", sync[2], "ratio", {}, "sync symbols / symbols");
    r.add_layer("util.pool_efficiency", cls_gbps[1] / (n * simd1), "ratio", {},
                fmt("core.decode_gbps.cpu / (%u x simd.decode_1t_gbps)", n));
    r.add_layer("conventional.decode_gbps.cpu", conv, "GB/s", {},
                fmt("16 partitions, %u threads", n));
    r.add_layer("core.recoil_vs_conventional", cls_gbps[1] / conv, "ratio", {},
                "core.decode_gbps.cpu / conventional.decode_gbps.cpu");

    // Metadata combine and its serialized size, per asset.
    const double na = static_cast<double>(d.preps().size());
    for (int c = 1; c < 3; ++c) {
        const auto t = repeat_for(kMinSeconds, kMinReps, [&] {
            for (const auto& p : d.preps()) {
                const auto m = combine_splits(p->a->file.metadata, kClasses[c].splits);
                if (m.num_symbols != p->a->file.metadata.num_symbols) ++r.mismatched;
            }
        });
        r.add_layer(std::string("core.combine_us.") + kClasses[c].name, median_of(t) / na * 1e6,
                    "us", {}, "combine_splits from 2176 splits, mean per asset");
    }
    for (int c = 0; c < 3; ++c) {
        double sum = 0;
        for (const auto& p : d.preps()) sum += static_cast<double>(serialize_metadata(p->cls[c]).size());
        r.add_layer(std::string("core.metadata_bytes.") + kClasses[c].name, sum / na, "B", {},
                    "serialize_metadata, mean per asset");
    }

    // Container framing and checksum on the cpu-class wire.
    std::vector<std::vector<u8>> wires;
    u64 wire_bytes = 0;
    for (const auto& p : d.preps()) {
        wires.push_back(format::save_recoil_file(p->a->file, p->cls[1]));
        wire_bytes += wires.back().size();
    }
    const double save = gbps_of(wire_bytes, r, [&](bool chk) {
        u64 bad = 0;
        for (std::size_t i = 0; i < wires.size(); ++i) {
            const auto w = format::save_recoil_file(d.preps()[i]->a->file, d.preps()[i]->cls[1]);
            bad += chk && w != wires[i];
        }
        return bad;
    });
    const double load = gbps_of(wire_bytes, r, [&](bool) {
        u64 bad = 0;
        for (std::size_t i = 0; i < wires.size(); ++i)
            bad += format::load_recoil_file(wires[i]).metadata.num_symbols !=
                   d.preps()[i]->a->file.metadata.num_symbols;
        return bad;
    });
    const double fnv = gbps_of(wire_bytes, r, [&](bool) {
        for (const auto& w : wires) format::fnv1a(w);
        return u64{0};
    });
    r.add_layer("format.save_gbps", save, "GB/s", {}, "save_recoil_file, cpu-class wire bytes");
    r.add_layer("format.load_gbps", load, "GB/s", {}, "load_recoil_file, checksum verified");
    r.add_layer("format.fnv1a_gbps", fnv, "GB/s", {}, "fnv1a over the same wires");
}

u64 counter(const obs::MetricsSnapshot& s, const char* name) {
    const u64* v = s.find(name);
    return v ? *v : 0;
}

/// Runs `in.replay` from `threads` callers for `seconds`; returns req/s.
double replay(const LayerInputs& in, unsigned threads, double seconds, Result& r) {
    std::atomic<u64> cursor{0}, done{0}, failed{0};
    const u64 end = now_ns() + static_cast<u64>(seconds * 1e9);
    const u64 t0 = now_ns();
    {
        std::vector<std::jthread> ts;
        for (unsigned t = 0; t < threads; ++t)
            ts.emplace_back([&] {
                u64 local = 0;
                while (now_ns() < end) {
                    const u64 i = cursor.fetch_add(1, std::memory_order_relaxed);
                    const ServeResult res = in.server->serve(in.replay[i % in.replay.size()]);
                    if (!res.ok()) failed.fetch_add(1);
                    ++local;
                }
                done.fetch_add(local);
            });
    }
    const double secs = (now_ns() - t0) * 1e-9;
    r.attempted += done.load();
    r.failed += failed.load();
    return done.load() / secs;
}

/// Nanoseconds per call of `fn(i)` from `threads` threads, each calling it
/// for kMinSeconds.
template <typename Fn>
double ns_per_call(unsigned threads, Fn&& fn) {
    std::atomic<u64> calls{0};
    const u64 t0 = now_ns();
    const u64 end = t0 + static_cast<u64>(kMinSeconds * 1e9);
    {
        std::vector<std::jthread> ts;
        for (unsigned t = 0; t < threads; ++t)
            ts.emplace_back([&, t] {
                u64 i = t * 7919, local = 0;
                while (now_ns() < end) {
                    for (int k = 0; k < 64; ++k) fn(i++);
                    local += 64;
                }
                calls.fetch_add(local);
            });
    }
    return (now_ns() - t0) * static_cast<double>(threads) / calls.load();
}

void serve_layers(const LayerInputs& in, Result& r) {
    serve::ContentServer& s = *in.server;
    const unsigned n = nproc();
    const std::size_t probe_assets = std::min(kMaxProbeAssets, in.assets.size());

    // Cold and warm serves by outcome, timed around ContentServer::serve.
    std::vector<double> hit, miss, range, combine;
    const auto rounds = repeat_for(kMinSeconds, kMinReps, [&] {
        s.cache().clear();
        for (std::size_t i = 0; i < probe_assets; ++i) {
            const SourceAsset& a = *in.assets[i];
            const u64 nsym = a.file.metadata.num_symbols;
            const u64 span = std::min<u64>(16384, nsym / 2);
            const u64 lo = mix(i) % (nsym - span);
            for (int pass = 0; pass < 2; ++pass) {
                for (const auto& c : kClasses) {
                    const u64 t0 = now_ns();
                    const ServeResult res = s.serve({a.name, c.splits, {}});
                    const double us = (now_ns() - t0) * 1e-3;
                    ++r.attempted;
                    if (!res.ok()) ++r.failed;
                    if (res.stats.cache_hit) {
                        hit.push_back(us);
                    } else {
                        miss.push_back(us);
                        combine.push_back(res.stats.combine_seconds * 1e6);
                    }
                }
                if (pass == 0) {
                    const u64 t0 = now_ns();
                    const ServeResult res = s.serve({a.name, 1, {{lo, lo + span}}});
                    range.push_back((now_ns() - t0) * 1e-3);
                    ++r.attempted;
                    if (!res.ok()) ++r.failed;
                }
            }
        }
    });
    const std::string rounds_note = fmt("%zu rounds over %zu assets", rounds.size(), probe_assets);
    r.add_layer("serve.hit_us", median_of(hit), "us", summarize(hit), "warm hits, " + rounds_note);
    r.add_layer("serve.miss_us", median_of(miss), "us", summarize(miss), "cold, " + rounds_note);
    r.add_layer("serve.range_us", median_of(range), "us", summarize(range),
                "first range build, " + rounds_note);
    r.add_layer("serve.combine_us", median_of(combine), "us", summarize(combine),
                "ServeStats::combine_seconds of misses");

    // The workload's own requests on 1 and n callers, with registry deltas.
    const auto before = s.metrics().snapshot();
    const double rps1 = replay(in, 1, kReplaySeconds, r);
    const double rpsn = replay(in, n, kReplaySeconds, r);
    const auto after = s.metrics().snapshot();
    auto delta = [&](const char* name) {
        return static_cast<double>(counter(after, name) - counter(before, name));
    };
    const double reqs = std::max(1.0, delta("serve_requests_total"));
    r.add_layer("serve.req_per_s.1t", rps1, "1/s", {},
                fmt("%zu-request replay, 1 caller", in.replay.size()));
    r.add_layer("serve.thread_scaling", rpsn / rps1, "ratio", {},
                fmt("req/s on %u callers / req/s on 1", n));
    r.add_layer("serve.hit_ratio", delta("serve_cache_hits_total") / reqs, "ratio", {},
                "registry delta over the replay");
    r.add_layer("serve.byte_hit_ratio",
                delta("cache_hit_bytes_total") / std::max(1.0, delta("serve_wire_bytes_total")),
                "ratio", {}, "registry delta over the replay");
    r.add_layer("serve.coalesced", delta("serve_coalesced_requests_total"), "count");
    r.add_layer("cache.evictions", delta("cache_evictions_total"), "count");
    r.add_layer("cache.admission_rejected", delta("cache_admission_rejected_total"), "count");
    r.add_layer("governor.unloads", delta("governor_unloads_total"), "count");

    // AssetStore::find and MetadataCache::get alone.
    std::vector<std::string> names;
    for (const SourceAsset* a : in.assets) names.push_back(a->name);
    serve::MetadataCache cache(serve::ServerOptions{}.cache_capacity_bytes);
    const auto small_wire = std::make_shared<const std::vector<u8>>(1024);
    for (const auto& nm : names)
        for (const auto& c : kClasses) cache.put(nm, c.splits, small_wire, c.splits);
    std::atomic<u64> misses{0};
    auto find = [&](u64 i) {
        if (!s.store().find(names[i % names.size()])) misses.fetch_add(1, std::memory_order_relaxed);
    };
    auto get = [&](u64 i) {
        if (!cache.get(names[i % names.size()], kClasses[i % 3].splits))
            misses.fetch_add(1, std::memory_order_relaxed);
    };
    r.add_layer("serve.store_find_ns.1t", ns_per_call(1, find), "ns");
    r.add_layer("serve.store_find_ns.nt", ns_per_call(n, find), "ns", {}, fmt("%u threads", n));
    r.add_layer("serve.cache_get_ns.1t", ns_per_call(1, get), "ns");
    r.add_layer("serve.cache_get_ns.nt", ns_per_call(n, get), "ns", {}, fmt("%u threads", n));
    r.notes.push_back({"lookup misses", fmt("%llu (assets the governor had unloaded)",
                                            static_cast<unsigned long long>(misses.load()))});
}

void wire_layers(const LayerInputs& in, Result& r) {
    serve::ContentServer& s = *in.server;
    const SourceAsset& a = *in.frame_asset;
    const ServeRequest req{a.name, 16, {}};
    const ServeResult warm = s.serve(req);
    ++r.attempted;
    if (!warm.ok() || !warm.wire) {
        ++r.failed;
        return;
    }
    const std::vector<u8>& want = *warm.wire;
    auto same = [&](const ServeResult& res) {
        ++r.attempted;
        if (!res.ok() || !res.wire) ++r.failed;
        else if (*res.wire != want) ++r.mismatched;
    };

    const auto req_frame = serve::encode_request(req);
    std::vector<u8> resp;
    const auto tf = repeat_for(kMinSeconds, kMinReps, [&] { resp = s.serve_frame(req_frame); });
    ServeResult decoded;
    const auto td = repeat_for(kMinSeconds, kMinReps, [&] { decoded = serve::decode_response(resp); });
    same(decoded);
    std::vector<std::vector<u8>> frames;
    const auto ts = repeat_for(kMinSeconds, kMinReps, [&] {
        frames.clear();
        ServeRequest streamed = req;
        streamed.accept |= serve::kAcceptStreamed;
        auto st = s.serve_stream(streamed);
        while (!st.done()) {
            auto f = st.next_frame();
            if (!f) break;
            frames.push_back(std::move(*f));
        }
    });
    serve::StreamReassembler re;
    for (const auto& f : frames) re.feed(f);
    same(re.result());
    const double frame_ms = median_of(tf) * 1e3, decode_ms = median_of(td) * 1e3;
    const double stream_ms = median_of(ts) * 1e3;
    const std::string size = fmt("%zu B wire, 16 splits", want.size());
    r.add_layer("serve.serve_frame_ms", frame_ms, "ms", ms_dist(tf), size);
    r.add_layer("serve.decode_response_ms", decode_ms, "ms", ms_dist(td), size);
    r.add_layer("serve.stream_drain_ms", stream_ms, "ms", ms_dist(ts),
                size + ", serve_stream + next_frame to done");
    r.add_layer("serve.stream_vs_materialized", stream_ms / frame_ms, "ratio", {},
                "stream_drain_ms / serve_frame_ms");

    net::Daemon daemon(s);
    std::thread loop([&] { daemon.run(); });
    double v1_ms = 0, v2_ms = 0;
    const auto d0 = daemon.stats();
    const auto m0 = s.metrics().snapshot();
    try {
        net::ClientOptions copt;
        copt.port = daemon.port();
        net::Client c(copt);
        ServeResult got;
        const auto t1 = repeat_for(kMinSeconds, kMinReps, [&] { got = c.request(req); });
        same(got);
        const auto t2 = repeat_for(kMinSeconds, kMinReps, [&] { got = c.request_streamed(req); });
        same(got);
        v1_ms = median_of(t1) * 1e3;
        v2_ms = median_of(t2) * 1e3;
    } catch (const std::exception&) {
        ++r.failed;
    }
    const auto d1 = daemon.stats();
    const auto m1 = s.metrics().snapshot();
    daemon.begin_drain();
    loop.join();
    const double reqs = std::max<double>(1, static_cast<double>(d1.requests - d0.requests));
    r.add_layer("net.v1_ms", v1_ms, "ms", {}, size + ", Client::request");
    r.add_layer("net.v2_ms", v2_ms, "ms", {}, size + ", Client::request_streamed");
    r.add_layer("net.residual_ms", v1_ms - frame_ms - decode_ms, "ms", {},
                "net.v1_ms - serve_frame_ms - decode_response_ms");
    r.add_layer("daemon.loop_wakeups", (d1.loop_wakeups - d0.loop_wakeups) / reqs, "1/req");
    r.add_layer("executor.tasks_executed",
                (counter(m1, "executor_executed_tasks_total") -
                 counter(m0, "executor_executed_tasks_total")) / reqs,
                "1/req");
    r.add_layer("executor.tasks_stolen",
                (counter(m1, "executor_stolen_tasks_total") -
                 counter(m0, "executor_stolen_tasks_total")) / reqs,
                "1/req");
}

}  // namespace

void run_layer_suite(const LayerInputs& in, Result& r) {
    decode_layers(in, r);
    serve_layers(in, r);
    wire_layers(in, r);
}

void add_trace_metrics(const std::vector<const SpanBuf*>& bufs, double untraced_rate,
                       double traced_rate, const Args& a, Result& r) {
    const TraceSummary t = summarize_trace(bufs);
    if (!a.trace_out.empty()) write_chrome_trace(a.trace_out, bufs);
    r.add_layer("trace.spans", static_cast<double>(t.spans), "count", {},
                fmt("%llu dropped past the buffer cap", static_cast<unsigned long long>(t.dropped)));
    r.add_layer("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0), "%", {},
                "untraced rate / traced rate - 1, same run");
    r.add_layer("trace.residual_pct", t.residual_pct, "%", {},
                "iteration span time not covered by a layer span");
    std::string self;
    for (const auto& [layer, pct] : t.layer_self_pct)
        self += fmt("%s%s %.2f%%", self.empty() ? "" : ", ", layer.c_str(), pct);
    r.notes.push_back({"span self time", self});
    if (!a.trace_out.empty()) r.notes.push_back({"trace file", a.trace_out});
}

}  // namespace perfbench
