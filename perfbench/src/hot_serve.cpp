// hot_serve: in-process serving, closed loop. nproc caller threads replay
// one seeded multi-tenant traffic plan (three Zipf tenants, a flash crowd, a
// unique-scan range phase) against a ContentServer with a DiskStore backing
// and a cache and memory budget below the working set, so cold combines,
// range builds, evictions and governor unloads run beside the warm reads.

#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/split_planner.hpp"
#include "serve/range_wire.hpp"
#include "serve/store.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace recoil;
using serve::ServeRequest;
using serve::ServeResult;

namespace {

const workload::TenantSpec kTenants[] = {
    {"alpha", 64, 1.1, 3.0}, {"bravo", 64, 0.9, 2.0}, {"carol", 64, 1.3, 1.0}};
constexpr std::size_t kPlanRequests = std::size_t{1} << 17;
constexpr u64 kScanSpan = 4096;
constexpr std::size_t kWarmRequests = std::size_t{1} << 17;
constexpr int kRangeChecks = 64;
// Three spans per request at several hundred thousand requests a second:
// keep the first 2^15 per caller, enough for the summary and a readable
// trace file; the rest are counted as dropped.
constexpr std::size_t kSpansPerThread = std::size_t{1} << 15;
constexpr double kCacheShare = 0.9;    // of the full-wire bytes the plan requests
constexpr double kBudgetShare = 1.0;   // of master bytes + cache capacity

struct Hot {
    std::string store_dir;
    std::vector<SourceAsset> assets;
    std::vector<workload::Arrival> plan;
    std::vector<ServeRequest> reqs;      ///< full-asset request per plan slot
    std::vector<u32> slot_asset;         ///< asset index per plan slot
    std::vector<std::array<u64, 3>> expected;  ///< wire size per asset and class
    u64 master_bytes = 0;    ///< resident master containers
    u64 wire_bytes = 0;      ///< distinct full-asset wires the plan requests
    u64 cache_capacity = 0;
    u64 budget = 0;
    u64 seed = 0;
    std::unique_ptr<serve::ContentServer> server;

    ~Hot() {
        server.reset();
        std::error_code ec;
        std::filesystem::remove_all(store_dir, ec);
    }
};

u32 class_of(u64 seed, u64 slot) { return static_cast<u32>(mix(seed * 0x9e37 + slot) % 3); }

/// Fixed sizes (16 to 112 KiB, independent of the seed) so the working set
/// is the same on every seed; only the content varies.
u64 asset_size(u32 index) { return (u64{16} << 10) * (1 + mix(index + 77) % 7); }

ServeRequest scan_request(const Hot& h, u32 asset, u64 i) {
    const u64 n = h.assets[asset].bytes.size();
    const u64 lo = mix(h.seed ^ (i * 0x2545f491)) % (n - kScanSpan);
    return ServeRequest{h.assets[asset].name, 1, {{lo, lo + kScanSpan}}};
}

struct ThreadOut {
    std::vector<LatencyHist> hist;
    std::vector<u64> count, bytes;
    u64 attempted = 0, failed = 0, mismatched = 0;
    explicit ThreadOut(int windows) : hist(windows), count(windows), bytes(windows) {}
};

/// One caller: takes plan slots from the shared cursor until `end_ns`. The
/// plan wraps; scan slots draw a fresh range on every pass so they stay
/// unique.
void caller(Hot& h, std::atomic<u64>& cursor, u64 start, u64 window_ns, int windows,
            u64 stop_after, ThreadOut& out, SpanBuf* sb) {
    const u64 end = start + window_ns * windows;
    for (;;) {
        const u64 i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= stop_after) return;
        const std::size_t slot = i % h.plan.size();
        const u32 asset = h.slot_asset[slot];
        SpanScope root(sb, "request", "client");
        const bool scan = h.plan[slot].scan;
        ServeRequest scan_req;
        if (scan) scan_req = scan_request(h, asset, i);
        const ServeRequest& req = scan ? scan_req : h.reqs[slot];
        const u64 t0 = now_ns();
        ServeResult res;
        {
            SpanScope s(sb, "ContentServer::serve", "serve", root.id());
            res = h.server->serve(req);
        }
        const u64 t1 = now_ns();
        ++out.attempted;
        u64 size = 0;
        {
            SpanScope s(sb, "check", "bench", root.id());
            if (!res.ok() || !res.wire) {
                ++out.failed;
            } else {
                size = res.wire->size();
                const bool ok = scan ? (res.payload == serve::PayloadKind::range && size > 0)
                                     : size == h.expected[asset][class_of(h.seed, slot)];
                if (!ok) ++out.mismatched;
            }
        }
        const int w = std::min<int>(static_cast<int>((t1 - start) / window_ns), windows - 1);
        out.hist[w].add(t1 - t0);
        ++out.count[w];
        out.bytes[w] += size;
        if (t1 >= end) return;
    }
}

struct LoopStats {
    std::vector<double> window_rps, window_gbps;
    LatencyHist hist;
    double rps = 0;
};

LoopStats run_callers(Hot& h, double seconds, int windows, u64 stop_after,
                      std::vector<std::unique_ptr<SpanBuf>>* spans, Result& r) {
    const unsigned n = nproc();
    std::atomic<u64> cursor{0};
    std::vector<ThreadOut> outs(n, ThreadOut(windows));
    const u64 window_ns = static_cast<u64>(seconds / windows * 1e9);
    const u64 start = now_ns();
    {
        std::vector<std::jthread> ts;
        for (unsigned t = 0; t < n; ++t)
            ts.emplace_back([&, t] {
                caller(h, cursor, start, window_ns, windows, stop_after, outs[t],
                       spans ? (*spans)[t].get() : nullptr);
            });
    }
    const double elapsed = (now_ns() - start) * 1e-9;
    LoopStats st;
    u64 total = 0;
    for (int w = 0; w < windows; ++w) {
        u64 c = 0, b = 0;
        for (const auto& o : outs) {
            c += o.count[w];
            b += o.bytes[w];
            st.hist.merge(o.hist[w]);
        }
        total += c;
        st.window_rps.push_back(c / (window_ns * 1e-9));
        st.window_gbps.push_back(b / (window_ns * 1e-9) / 1e9);
    }
    st.rps = total / elapsed;
    for (const auto& o : outs) {
        r.attempted += o.attempted;
        r.failed += o.failed;
        r.mismatched += o.mismatched;
    }
    return st;
}

std::unique_ptr<Hot> make_hot(const Args& a, Result& r) {
    auto h = std::make_unique<Hot>();
    h->seed = a.seed;
    h->store_dir = a.workdir + "/hot_serve_store";
    std::filesystem::remove_all(h->store_dir);
    std::filesystem::create_directories(h->store_dir);

    workload::TrafficOptions topt;
    topt.tenants.assign(std::begin(kTenants), std::end(kTenants));
    topt.requests = kPlanRequests;
    topt.offered_rps = 1e9;  // arrival stamps unused: the replay is closed-loop
    topt.phases = {{workload::PhaseSpec::Kind::flash_crowd, 0.40, 0.50, 0, 0.6},
                   {workload::PhaseSpec::Kind::unique_scan, 0.70, 0.80, 0, 0.05}};
    topt.seed = a.seed;
    h->plan = workload::traffic_plan(topt);

    for (u32 t = 0; t < std::size(kTenants); ++t)
        for (u32 k = 1; k <= kTenants[t].keys; ++k) {
            const u32 idx = static_cast<u32>(h->assets.size());
            h->assets.push_back(text_asset(workload::traffic_asset_name(kTenants[t], k),
                                           asset_size(idx), mix(a.seed + idx), kMaxSplits));
        }
    for (const auto& asset : h->assets) {
        h->master_bytes += format::serialized_file_size(asset.file);
        std::array<u64, 3> sizes{};
        for (u32 c = 0; c < 3; ++c)
            sizes[c] = format::serve_combined(asset.file, kClasses[c].splits).size();
        h->expected.push_back(sizes);
    }

    u32 base = 0;
    std::vector<u32> first(std::size(kTenants));
    for (u32 t = 0; t < std::size(kTenants); ++t) {
        first[t] = base;
        base += kTenants[t].keys;
    }
    std::vector<std::array<bool, 3>> used(h->assets.size());
    for (std::size_t s = 0; s < h->plan.size(); ++s) {
        const auto& arr = h->plan[s];
        const u32 idx = first[arr.tenant] + arr.key - 1;
        const u32 cls = class_of(a.seed, s);
        h->slot_asset.push_back(idx);
        h->reqs.push_back({h->assets[idx].name, kClasses[cls].splits, {}});
        if (!arr.scan && !used[idx][cls]) {
            used[idx][cls] = true;
            h->wire_bytes += h->expected[idx][cls];
        }
    }

    // The cache holds 90% of the full wires the plan requests and the
    // budget is masters + cache, below the working set (masters, requested
    // wires and scan wires). Steady state then runs evictions, cold combines
    // and occasional governor unloads beside the warm hits, at the same
    // pressure on every seed. A tighter budget makes the governor unload
    // masters that cache hits still need, and throughput collapses.
    serve::ServerOptions opt;
    opt.cache_capacity_bytes = static_cast<u64>(kCacheShare * h->wire_bytes);
    opt.mem_budget_bytes =
        static_cast<u64>(kBudgetShare * (h->master_bytes + opt.cache_capacity_bytes));
    h->cache_capacity = opt.cache_capacity_bytes;
    h->budget = opt.mem_budget_bytes;
    h->server = std::make_unique<serve::ContentServer>(opt);
    h->server->store().attach_backing(std::make_shared<serve::DiskStore>(h->store_dir));
    for (const auto& asset : h->assets) h->server->store().add_file(asset.name, asset.file);

    // Warm-up: every wire once, then a slice of the plan on every caller.
    for (const auto& asset : h->assets)
        for (const auto& c : kClasses) {
            ++r.attempted;
            if (!h->server->serve({asset.name, c.splits, {}}).ok()) ++r.failed;
        }
    run_callers(*h, 3600, 1, kWarmRequests, nullptr, r);
    return h;
}

/// Decodes every distinct full wire once, and a sample of range wires,
/// against the source.
void verify_wires(Hot& h, Result& r) {
    for (const auto& asset : h.assets)
        for (const auto& c : kClasses) {
            ++r.attempted;
            const ServeResult res = h.server->serve({asset.name, c.splits, {}});
            if (!res.ok() || !res.wire) ++r.failed;
            else if (!wire_decodes_to(*res.wire, asset)) ++r.mismatched;
        }
    for (int k = 0; k < kRangeChecks; ++k) {
        const u32 asset = static_cast<u32>(mix(h.seed + 991 * k) % h.assets.size());
        const ServeRequest req = scan_request(h, asset, k);
        ++r.attempted;
        const ServeResult res = h.server->serve(req);
        if (!res.ok() || !res.wire) {
            ++r.failed;
            continue;
        }
        try {
            const auto got = serve::decode_range_wire(*res.wire);
            const auto& src = h.assets[asset].bytes;
            const auto lo = static_cast<std::ptrdiff_t>(req.range->first);
            if (got.size() != kScanSpan ||
                !std::equal(got.begin(), got.end(), src.begin() + lo))
                ++r.mismatched;
        } catch (const std::exception&) {
            ++r.mismatched;
        }
    }
}

/// Mean wire overhead over every asset and class.
double mean_wire_overhead_pct(const Hot& h) {
    double sum = 0;
    for (std::size_t i = 0; i < h.assets.size(); ++i)
        for (u64 size : h.expected[i]) sum += wire_overhead_pct(h.assets[i].file, size);
    return sum / static_cast<double>(h.assets.size() * std::size(kClasses));
}

}  // namespace

Result run_hot_serve(const Args& a) {
    Result r;
    r.workload = "hot_serve";
    std::unique_ptr<Hot> hot;
    std::vector<double> setups;
    for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
        hot.reset();
        const u64 t0 = now_ns();
        hot = make_hot(a, r);
        setups.push_back((now_ns() - t0) * 1e-9);
    }
    r.notes.push_back({"corpus", fmt("%zu assets (16-112 KiB text, n=11) over 3 Zipf tenants, "
                                     "encoded at %u splits; masters %llu B, requested wires "
                                     "%llu B, cache_capacity_bytes %llu, mem_budget_bytes %llu",
                                     hot->assets.size(), kMaxSplits,
                                     static_cast<unsigned long long>(hot->master_bytes),
                                     static_cast<unsigned long long>(hot->wire_bytes),
                                     static_cast<unsigned long long>(hot->cache_capacity),
                                     static_cast<unsigned long long>(hot->budget))});
    r.notes.push_back({"load", fmt("closed loop, %u caller threads, plan of %zu requests "
                                   "replayed with wrap-around",
                                   nproc(), kPlanRequests)});
    constexpr u64 kForever = ~u64{0};

    if (a.trace) {
        std::vector<std::unique_ptr<SpanBuf>> bufs;
        for (unsigned t = 0; t < nproc(); ++t)
            bufs.push_back(std::make_unique<SpanBuf>(true, t + 1, kSpansPerThread));
        const auto [plain, traced] = alternate_segments(a.seconds, [&](double secs, bool on) {
            return run_callers(*hot, secs, 1, kForever, on ? &bufs : nullptr, r).rps;
        });
        std::vector<const SpanBuf*> views;
        for (const auto& b : bufs) views.push_back(b.get());
        add_trace_metrics(views, plain, traced, a, r);

        LayerInputs in;
        const SourceAsset* largest = &hot->assets[0];
        for (const auto& asset : hot->assets) {
            in.assets.push_back(&asset);
            if (asset.raw_bytes() > largest->raw_bytes()) largest = &asset;
        }
        in.server = hot->server.get();
        in.replay = hot->reqs;
        for (std::size_t s = 0; s < hot->plan.size(); ++s)
            if (hot->plan[s].scan) in.replay[s] = scan_request(*hot, hot->slot_asset[s], s);
        in.frame_asset = largest;
        run_layer_suite(in, r);
        verify_wires(*hot, r);
        return r;
    }

    const LoopStats st = run_callers(*hot, a.seconds, kWindows, kForever, nullptr, r);
    verify_wires(*hot, r);
    const Dist setup = summarize(setups);
    const Dist rps = summarize(st.window_rps);
    const Dist gbps = summarize(st.window_gbps);
    const double p50 = st.hist.quantile_ns(0.5) * 1e-3;
    const double p95 = st.hist.quantile_ns(0.95) * 1e-3;
    const double p99 = st.hist.quantile_ns(0.99) * 1e-3;
    const auto samples = static_cast<unsigned long long>(st.hist.count());
    const std::string p50_note = fmt("per request, %llu samples", samples);
    const std::string p95_note = fmt("p95 per request over %llu samples, %llu beyond", samples,
                                     static_cast<unsigned long long>(st.hist.beyond(0.95)));
    const std::string p99_note = fmt("p99 per request over %llu samples, %llu beyond", samples,
                                     static_cast<unsigned long long>(st.hist.beyond(0.99)));
    const double overhead = mean_wire_overhead_pct(*hot);
    const double rss = peak_rss_mb();
    const double err = r.attempted ? static_cast<double>(r.errors()) / r.attempted : 1.0;
    const auto totals = hot->server->totals();

    r.add_e2e("setup_s", setup.median, "s", setup, fmt("median of %zu set-ups", setups.size()));
    r.add_e2e("throughput_gbps", gbps.median, "GB/s", gbps, "wire bytes served");
    r.add_e2e("ops_per_s", rps.median, "1/s", rps, "ContentServer::serve calls completed");
    r.add_e2e("latency_p50_us", p50, "us", {}, p50_note);
    // p95, not p99: with about 2% cold requests the p99 falls where hits
    // end and misses begin, and moved by a fifth between seeds.
    r.add_e2e("latency_tail_us", p95, "us", {}, p95_note);
    r.add_e2e("wire_overhead_pct", overhead, "%", {}, "mean over assets x 3 classes");
    r.add_e2e("peak_rss_mb", rss, "MB");

    r.add_named("setup_s", setup.median, "s", setup);
    r.add_named("req_per_s", rps.median, "1/s", rps, fmt("median of %d windows", kWindows));
    r.add_named("latency_p50_us", p50, "us", {}, p50_note);
    r.add_named("latency_p99_us", p99, "us", {}, p99_note);
    r.add_named("latency_p999_us", st.hist.quantile_ns(0.999) * 1e-3, "us", {},
                fmt("p99.9 per request, %llu beyond",
                    static_cast<unsigned long long>(st.hist.beyond(0.999))));
    r.add_named("error_rate", err, "ratio", {},
                fmt("%llu errors / %llu attempted", static_cast<unsigned long long>(r.errors()),
                    static_cast<unsigned long long>(r.attempted)));
    r.add_named("peak_rss_mb", rss, "MB");
    const auto cs = hot->server->cache().stats();
    const auto gs = hot->server->governor().stats();
    r.notes.push_back({"server totals",
                       fmt("%llu requests, %llu cache hits, %llu ranges, %llu coalesced, "
                           "%llu evictions, %llu unloads",
                           static_cast<unsigned long long>(totals.requests),
                           static_cast<unsigned long long>(totals.cache_hits),
                           static_cast<unsigned long long>(totals.range_requests),
                           static_cast<unsigned long long>(totals.coalesced_requests),
                           static_cast<unsigned long long>(cs.evictions),
                           static_cast<unsigned long long>(gs.unloads))});
    return r;
}

}  // namespace perfbench
