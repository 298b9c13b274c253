// decode_fleet: the paper's client path, compute-bound. Two assets encoded
// once at 2176 splits; every cycle serves each to the phone, cpu and gpu
// client classes: combine, serialize, parse, build tables, decode, compare.

#include <cstring>
#include <memory>
#include <optional>

#include "core/recoil_decoder.hpp"
#include "core/split_planner.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace recoil;

namespace {

constexpr u64 kTextBytes = u64{8} << 20;
constexpr u64 kLatentSymbols = u64{4} << 20;  // 8 MiB of u16 symbols

struct Fleet {
    std::vector<SourceAsset> assets;  // text (u8, static), latent (u16, indexed)
    std::unique_ptr<ThreadPool> phone_pool;  // 2 threads
    std::unique_ptr<ThreadPool> wide_pool;   // nproc threads, cpu and gpu
    std::vector<u8> out8;
    std::vector<u16> out16;
    u64 cycle_bytes = 0;  ///< uncompressed bytes one cycle decodes

    ThreadPool* pool_for(const ClientClass& c) const {
        return c.splits == 2 ? phone_pool.get() : wide_pool.get();
    }
};

std::unique_ptr<Fleet> make_fleet(u64 seed) {
    auto f = std::make_unique<Fleet>();
    f->assets.push_back(text_asset("text", kTextBytes, mix(seed), kMaxSplits));
    f->assets.push_back(latent_asset("latent", kLatentSymbols, mix(seed + 1), kMaxSplits));
    f->phone_pool = std::make_unique<ThreadPool>(2);
    f->wide_pool = std::make_unique<ThreadPool>(nproc());
    f->out8.resize(f->assets[0].bytes.size());
    f->out16.resize(f->assets[1].words.size());
    for (const auto& a : f->assets) f->cycle_bytes += a.raw_bytes() * std::size(kClasses);
    return f;
}

/// One client of class `c` fetching `a`. Returns false when the decoded
/// symbols differ from the source.
bool client_decode(Fleet& f, const SourceAsset& a, const ClientClass& c, SpanBuf* sb,
                   u64 parent) {
    RecoilMetadata meta;
    {
        SpanScope s(sb, "combine_splits", "core", parent);
        meta = combine_splits(a.file.metadata, c.splits);
    }
    std::vector<u8> wire;
    {
        SpanScope s(sb, "save_recoil_file", "format", parent);
        wire = format::save_recoil_file(a.file, meta);
    }
    format::RecoilFile g;
    {
        SpanScope s(sb, "load_recoil_file", "format", parent);
        g = format::load_recoil_file(wire);
    }
    const std::span<const u16> units(g.units);
    ThreadPool* pool = f.pool_for(c);
    if (g.sym_width == 1) {
        std::optional<StaticModel> m;
        {
            SpanScope s(sb, "build_static_model", "rans", parent);
            m.emplace(g.build_static_model());
        }
        if (g.metadata.num_symbols != f.out8.size()) return false;
        {
            SpanScope s(sb, "recoil_decode_into", "core", parent);
            recoil_decode_into<Rans32, 32, u8>(units, g.metadata, m->tables(),
                                               std::span<u8>(f.out8), pool, nullptr,
                                               simd::SimdRangeFn<u8>{});
        }
        SpanScope s(sb, "compare", "bench", parent);
        return std::memcmp(f.out8.data(), a.bytes.data(), a.bytes.size()) == 0;
    }
    std::optional<IndexedModelSet> m;
    {
        SpanScope s(sb, "build_indexed_model", "rans", parent);
        m.emplace(g.build_indexed_model());
    }
    if (g.metadata.num_symbols != f.out16.size()) return false;
    {
        SpanScope s(sb, "recoil_decode_into", "core", parent);
        recoil_decode_into<Rans32, 32, u16>(units, g.metadata, m->tables(),
                                            std::span<u16>(f.out16), pool, nullptr,
                                            simd::SimdRangeFn<u16>{});
    }
    SpanScope s(sb, "compare", "bench", parent);
    return std::memcmp(f.out16.data(), a.words.data(), a.words.size() * 2) == 0;
}

/// One pass over every asset and client class.
void cycle(Fleet& f, SpanBuf* sb, Result& r) {
    for (const auto& a : f.assets) {
        for (const auto& c : kClasses) {
            SpanScope root(sb, c.name, "client");
            ++r.attempted;
            try {
                if (!client_decode(f, a, c, sb, root.id())) ++r.mismatched;
            } catch (const std::exception&) {
                ++r.failed;
            }
        }
    }
}

struct LoopStats {
    std::vector<double> window_gbps, window_ops;
    std::vector<double> cycle_us;
    double total_gbps = 0;
};

/// Whole cycles only, so every window decodes the same mix of classes.
LoopStats timed_loop(Fleet& f, double seconds, int windows, SpanBuf* sb, Result& r) {
    LoopStats st;
    const double window_s = seconds / windows;
    u64 all_bytes = 0, all_ns = 0;
    for (int w = 0; w < windows; ++w) {
        const u64 w0 = now_ns();
        u64 cycles = 0;
        for (;;) {
            const u64 c0 = now_ns();
            cycle(f, sb, r);
            const u64 c1 = now_ns();
            st.cycle_us.push_back((c1 - c0) * 1e-3);
            ++cycles;
            if ((c1 - w0) * 1e-9 >= window_s) break;
        }
        const double secs = (now_ns() - w0) * 1e-9;
        st.window_gbps.push_back(cycles * f.cycle_bytes / secs / 1e9);
        st.window_ops.push_back(cycles * f.assets.size() * std::size(kClasses) / secs);
        all_bytes += cycles * f.cycle_bytes;
        all_ns += static_cast<u64>(secs * 1e9);
    }
    st.total_gbps = all_bytes / (all_ns * 1e-9) / 1e9;
    return st;
}

/// Mean wire overhead over every asset and class.
double mean_wire_overhead_pct(const Fleet& f) {
    double sum = 0;
    for (const auto& a : f.assets)
        for (const auto& c : kClasses) {
            const auto wire =
                format::save_recoil_file(a.file, combine_splits(a.file.metadata, c.splits));
            sum += wire_overhead_pct(a.file, wire.size());
        }
    return sum / static_cast<double>(f.assets.size() * std::size(kClasses));
}

}  // namespace

Result run_decode_fleet(const Args& a) {
    Result r;
    r.workload = "decode_fleet";
    std::unique_ptr<Fleet> fleet;
    std::vector<double> setups;
    for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
        fleet.reset();
        const u64 t0 = now_ns();
        fleet = make_fleet(a.seed);
        cycle(*fleet, nullptr, r);  // warm-up: first touch, pools, caches
        cycle(*fleet, nullptr, r);
        setups.push_back((now_ns() - t0) * 1e-9);
    }
    r.notes.push_back({"corpus", fmt("text %llu B (n=11 static), latent %llu symbols "
                                     "(n=16 indexed), encoded at %u splits",
                                     static_cast<unsigned long long>(kTextBytes),
                                     static_cast<unsigned long long>(kLatentSymbols),
                                     kMaxSplits)});
    r.notes.push_back({"classes", fmt("phone 2 splits/2 threads, cpu 16 splits/%u threads, "
                                      "gpu 2176 splits/%u threads",
                                      nproc(), nproc())});

    if (a.trace) {
        SpanBuf sb(true, 1);
        const auto [plain, traced] = alternate_segments(a.seconds, [&](double secs, bool on) {
            return timed_loop(*fleet, secs, 1, on ? &sb : nullptr, r).total_gbps;
        });
        add_trace_metrics({&sb}, plain, traced, a, r);

        serve::ContentServer server;
        LayerInputs in;
        for (const auto& asset : fleet->assets) {
            server.store().add_file(asset.name, asset.file);
            in.assets.push_back(&asset);
            for (const auto& c : kClasses) in.replay.push_back({asset.name, c.splits, {}});
        }
        in.server = &server;
        in.frame_asset = &fleet->assets[0];
        run_layer_suite(in, r);
        return r;
    }

    const LoopStats st = timed_loop(*fleet, a.seconds, kWindows, nullptr, r);
    const Dist setup = summarize(setups);
    const Dist gbps = summarize(st.window_gbps);
    const Dist ops = summarize(st.window_ops);
    const double p50 = quantile(st.cycle_us, 0.5);
    // p80: a run holds about fifty cycles, and the highest percentile with
    // at least ten cycles beyond it is steadier than a p90 with five.
    const double p80 = quantile(st.cycle_us, 0.8);
    const std::size_t n = st.cycle_us.size();
    const std::string lat_note = fmt("per client-class cycle, %zu cycles", n);
    const std::string tail_note =
        fmt("p80 per cycle over %zu cycles, %zu beyond", n, n - static_cast<std::size_t>(0.8 * n));
    const double overhead = mean_wire_overhead_pct(*fleet);
    const double rss = peak_rss_mb();
    const double err = r.attempted ? static_cast<double>(r.errors()) / r.attempted : 1.0;

    r.add_e2e("setup_s", setup.median, "s", setup, fmt("median of %zu set-ups", setups.size()));
    r.add_e2e("throughput_gbps", gbps.median, "GB/s", gbps, "uncompressed bytes decoded");
    r.add_e2e("ops_per_s", ops.median, "1/s", ops, "client decodes per second");
    r.add_e2e("latency_p50_us", p50, "us", {}, lat_note);
    r.add_e2e("latency_tail_us", p80, "us", {}, tail_note);
    r.add_e2e("wire_overhead_pct", overhead, "%", {}, "mean over 2 assets x 3 classes");
    r.add_e2e("peak_rss_mb", rss, "MB");

    r.add_named("setup_s", setup.median, "s", setup);
    r.add_named("decode_gbps", gbps.median, "GB/s", gbps,
                fmt("median of %d windows", kWindows));
    r.add_named("wire_overhead_pct", overhead, "%");
    r.add_named("error_rate", err, "ratio", {},
                fmt("%llu errors / %llu attempted", static_cast<unsigned long long>(r.errors()),
                    static_cast<unsigned long long>(r.attempted)));
    r.add_named("peak_rss_mb", rss, "MB");
    return r;
}

}  // namespace perfbench
