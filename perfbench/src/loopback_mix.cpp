// loopback_mix: the socket data plane, big and small messages mixed. An
// in-process net::Daemon with default options serves warm multi-MB wires to
// max(1, nproc/2) closed-loop bulk connections that alternate v1 `request`
// and v2 `request_streamed`, while one probe connection sends small
// requests on a fixed schedule. The probe shows whether bulk traffic delays
// small requests on the event loop.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "core/split_planner.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "serve/range_wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace recoil;
using serve::ServeRequest;
using serve::ServeResult;
using serve::WireBytes;

namespace {

/// Source sizes chosen so the bulk wires are about 1, 4, 8 and 16 MB.
constexpr u64 kBulkSource[] = {u64{1900} << 10, u64{7600} << 10, u64{15200} << 10,
                               u64{30400} << 10};
constexpr const char* kBulkLabel[] = {"1mb", "4mb", "8mb", "16mb"};
constexpr u32 kBulkSplits = 16;
constexpr u64 kProbeSpan = u64{16} << 10;    // range slice of the 1 MB asset
constexpr u64 kSmallBytes = u64{64} << 10;   // the small asset, fetched at 2 splits
// One probe every 25 ms: below the probe's service rate while bulk frames
// hold the loop, so the probe backlog stays bounded and its latency does
// not grow with the length of the run.
constexpr u64 kProbePeriodNs = 25'000'000;

struct Mix {
    std::vector<SourceAsset> bulk;
    SourceAsset small;
    std::unique_ptr<serve::ContentServer> server;
    std::vector<WireBytes> bulk_wire;   ///< in-process wire of each bulk asset
    ServeRequest probe_req[2];
    WireBytes probe_wire[2];
    std::unique_ptr<net::Daemon> daemon;
    std::thread loop;
    std::vector<std::unique_ptr<net::Client>> bulk_clients;
    std::unique_ptr<net::Client> probe_client;

    void stop_daemon() {
        bulk_clients.clear();
        probe_client.reset();
        if (daemon) daemon->begin_drain();
        if (loop.joinable()) loop.join();
        daemon.reset();
    }
    ~Mix() { stop_daemon(); }
};

ServeRequest bulk_request(const Mix& m, std::size_t i) {
    return ServeRequest{m.bulk[i].name, kBulkSplits, {}};
}

bool same_bytes(const ServeResult& res, const WireBytes& want) {
    return res.wire && res.wire->size() == want->size() &&
           std::memcmp(res.wire->data(), want->data(), want->size()) == 0;
}

/// Outcome counts shared by the client threads of a run.
struct Tally {
    std::atomic<u64> attempted{0}, failed{0}, refused{0}, mismatched{0};

    void add_to(Result& r) const {
        r.attempted += attempted.load();
        r.failed += failed.load();
        r.refused += refused.load();
        r.mismatched += mismatched.load();
    }
};

/// Issues one fetch and counts its outcome: a connection the daemon refused
/// or closed counts as refused, any other error as failed, different bytes
/// as not bit-exact. Returns the delivered wire bytes.
u64 fetch(net::Client& c, const ServeRequest& req, bool streamed, const WireBytes& want,
          SpanBuf* sb, u64 parent, Tally& t) {
    t.attempted.fetch_add(1);
    ServeResult res;
    try {
        SpanScope s(sb, streamed ? "Client::request_streamed" : "Client::request", "net",
                    parent);
        res = streamed ? c.request_streamed(req) : c.request(req);
    } catch (const net::NetError& e) {
        const bool refused = e.code() == net::NetErrorCode::connect_failed ||
                             e.code() == net::NetErrorCode::closed;
        (refused ? t.refused : t.failed).fetch_add(1);
        return 0;
    } catch (const std::exception&) {
        t.failed.fetch_add(1);
        return 0;
    }
    SpanScope s(sb, "compare", "bench", parent);
    if (!res.ok()) {
        t.failed.fetch_add(1);
        return 0;
    }
    if (!same_bytes(res, want)) {
        t.mismatched.fetch_add(1);
        return 0;
    }
    return res.wire->size();
}

std::unique_ptr<Mix> make_mix(const Args& a, Result& r) {
    auto m = std::make_unique<Mix>();
    for (std::size_t i = 0; i < std::size(kBulkSource); ++i)
        m->bulk.push_back(text_asset(std::string("bulk_") + kBulkLabel[i], kBulkSource[i],
                                     mix(a.seed + i), kMaxSplits));
    m->small = text_asset("small", kSmallBytes, mix(a.seed + 99), kMaxSplits);
    m->server = std::make_unique<serve::ContentServer>();
    for (const auto& b : m->bulk) m->server->store().add_file(b.name, b.file);
    m->server->store().add_file(m->small.name, m->small.file);

    const u64 lo = mix(a.seed + 7) % (m->bulk[0].bytes.size() - kProbeSpan);
    m->probe_req[0] = ServeRequest{m->bulk[0].name, 1, {{lo, lo + kProbeSpan}}};
    m->probe_req[1] = ServeRequest{m->small.name, 2, {}};
    // Warm every wire in-process; these are also the bytes every socket
    // response must match.
    auto warm = [&](const ServeRequest& req) {
        const ServeResult res = m->server->serve(req);
        ++r.attempted;
        if (!res.ok() || !res.wire) {
            ++r.failed;
            return WireBytes(std::make_shared<std::vector<u8>>());
        }
        return res.wire;
    };
    for (std::size_t i = 0; i < m->bulk.size(); ++i) {
        m->bulk_wire.push_back(warm(bulk_request(*m, i)));
        if (!wire_decodes_to(*m->bulk_wire.back(), m->bulk[i])) ++r.mismatched;
    }
    for (int k = 0; k < 2; ++k) m->probe_wire[k] = warm(m->probe_req[k]);
    const auto slice = serve::decode_range_wire(*m->probe_wire[0]);
    if (slice.size() != kProbeSpan ||
        !std::equal(slice.begin(), slice.end(), m->bulk[0].bytes.begin() + lo))
        ++r.mismatched;
    if (!wire_decodes_to(*m->probe_wire[1], m->small)) ++r.mismatched;

    m->daemon = std::make_unique<net::Daemon>(*m->server);
    m->loop = std::thread([d = m->daemon.get()] { d->run(); });
    net::ClientOptions copt;
    copt.port = m->daemon->port();
    const unsigned bulk_conns = std::max(1u, nproc() / 2);
    Tally t;
    for (unsigned j = 0; j < bulk_conns; ++j) {
        m->bulk_clients.push_back(std::make_unique<net::Client>(copt));
        for (bool streamed : {false, true})  // warm both paths on every connection
            fetch(*m->bulk_clients.back(), bulk_request(*m, 0), streamed, m->bulk_wire[0],
                  nullptr, 0, t);
    }
    m->probe_client = std::make_unique<net::Client>(copt);
    for (int k = 0; k < 2; ++k)
        fetch(*m->probe_client, m->probe_req[k], false, m->probe_wire[k], nullptr, 0, t);
    t.add_to(r);
    return m;
}

struct LoopStats {
    std::vector<double> window_gbps, window_fps;
    std::vector<double> fetch_ms;
    std::vector<std::vector<double>> fetch_ms_by_size;
    LatencyHist probe;
    std::vector<double> probe_late_ms;
    double gbps = 0;
};

/// Bulk connection j records spans into (*bufs)[j], the probe into the
/// last buffer; null `bufs` records none.
LoopStats run_mix(Mix& m, double seconds, int windows,
                  std::vector<std::unique_ptr<SpanBuf>>* bufs, Result& r) {
    const std::size_t conns = m.bulk_clients.size();
    auto buf = [&](std::size_t i) { return bufs ? (*bufs)[i].get() : nullptr; };
    const u64 window_ns = static_cast<u64>(seconds / windows * 1e9);
    std::vector<std::vector<u64>> bytes(conns, std::vector<u64>(windows));
    std::vector<std::vector<u64>> count(conns, std::vector<u64>(windows));
    std::vector<std::vector<std::pair<std::size_t, double>>> lat(conns);
    Tally t;
    LoopStats st;
    const u64 start = now_ns();
    const u64 end = start + window_ns * windows;
    {
        std::vector<std::jthread> ts;
        for (std::size_t j = 0; j < conns; ++j)
            ts.emplace_back([&, j] {
                SpanBuf* sb = buf(j);
                for (u64 k = 0;; ++k) {
                    const std::size_t asset = (k + j) % m.bulk.size();
                    const bool streamed = ((k + j) / m.bulk.size()) % 2 == 1;
                    const u64 t0 = now_ns();
                    u64 got;
                    {
                        SpanScope root(sb, "fetch", "client");
                        got = fetch(*m.bulk_clients[j], bulk_request(m, asset), streamed,
                                    m.bulk_wire[asset], sb, root.id(), t);
                    }
                    const u64 t1 = now_ns();
                    const int w = std::min<int>(static_cast<int>((t1 - start) / window_ns),
                                                windows - 1);
                    bytes[j][w] += got;
                    ++count[j][w];
                    lat[j].emplace_back(asset, (t1 - t0) * 1e-6);
                    if (t1 >= end) return;
                }
            });
        ts.emplace_back([&] {
            SpanBuf* sb = buf(conns);
            for (u64 k = 0;; ++k) {
                const u64 due = start + k * kProbePeriodNs;
                if (due >= end) return;
                const u64 now = now_ns();
                if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
                st.probe_late_ms.push_back((now_ns() - due) * 1e-6);
                {
                    SpanScope root(sb, "probe", "client");
                    fetch(*m.probe_client, m.probe_req[k % 2], false, m.probe_wire[k % 2], sb,
                          root.id(), t);
                }
                st.probe.add(now_ns() - due);
            }
        });
    }
    const double elapsed = (now_ns() - start) * 1e-9;
    u64 total = 0;
    for (int w = 0; w < windows; ++w) {
        u64 b = 0, c = 0;
        for (std::size_t j = 0; j < conns; ++j) {
            b += bytes[j][w];
            c += count[j][w];
        }
        total += b;
        st.window_gbps.push_back(b / (window_ns * 1e-9) / 1e9);
        st.window_fps.push_back(c / (window_ns * 1e-9));
    }
    st.gbps = total / elapsed / 1e9;
    st.fetch_ms_by_size.resize(m.bulk.size());
    for (const auto& l : lat)
        for (const auto& [asset, ms] : l) {
            st.fetch_ms.push_back(ms);
            st.fetch_ms_by_size[asset].push_back(ms);
        }
    t.add_to(r);
    return st;
}

/// Mean wire overhead over the bulk wires.
double mean_wire_overhead_pct(const Mix& m) {
    double sum = 0;
    for (std::size_t i = 0; i < m.bulk.size(); ++i)
        sum += wire_overhead_pct(m.bulk[i].file, m.bulk_wire[i]->size());
    return sum / static_cast<double>(m.bulk.size());
}

}  // namespace

Result run_loopback_mix(const Args& a) {
    Result r;
    r.workload = "loopback_mix";
    std::unique_ptr<Mix> mixw;
    std::vector<double> setups;
    for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
        mixw.reset();
        const u64 t0 = now_ns();
        mixw = make_mix(a, r);
        setups.push_back((now_ns() - t0) * 1e-9);
    }
    std::string sizes;
    for (const auto& w : mixw->bulk_wire) sizes += fmt("%s%zu", sizes.empty() ? "" : "/", w->size());
    r.notes.push_back({"corpus", fmt("bulk wires %s B at %u splits; probe: %llu-symbol range "
                                     "of the first asset and a %llu B asset at 2 splits",
                                     sizes.c_str(), kBulkSplits,
                                     static_cast<unsigned long long>(kProbeSpan),
                                     static_cast<unsigned long long>(kSmallBytes))});
    r.notes.push_back({"load", fmt("%zu closed-loop bulk connections (v1/v2 alternating), "
                                   "1 probe connection every %.1f ms; daemon defaults",
                                   mixw->bulk_clients.size(), kProbePeriodNs * 1e-6)});
    if (a.trace) {
        std::vector<std::unique_ptr<SpanBuf>> bufs;
        for (std::size_t t = 0; t <= mixw->bulk_clients.size(); ++t)
            bufs.push_back(std::make_unique<SpanBuf>(true, t + 1));
        std::vector<double> late;
        const auto [plain, traced] = alternate_segments(a.seconds, [&](double secs, bool on) {
            const LoopStats st = run_mix(*mixw, secs, 1, on ? &bufs : nullptr, r);
            late.insert(late.end(), st.probe_late_ms.begin(), st.probe_late_ms.end());
            return st.gbps;
        });
        std::vector<const SpanBuf*> views;
        for (const auto& b : bufs) views.push_back(b.get());
        add_trace_metrics(views, plain, traced, a, r);
        r.add_layer("probe.late_ms", quantile(late, 0.5), "ms", {},
                    fmt("median generator lag over %zu probes", late.size()));
        mixw->stop_daemon();

        LayerInputs in;
        for (const auto& b : mixw->bulk) {
            in.assets.push_back(&b);
            in.replay.push_back({b.name, kBulkSplits, {}});
        }
        in.replay.push_back(mixw->probe_req[0]);
        in.replay.push_back(mixw->probe_req[1]);
        in.server = mixw->server.get();
        in.frame_asset = &mixw->bulk.back();
        run_layer_suite(in, r);
        return r;
    }

    const LoopStats st = run_mix(*mixw, a.seconds, kWindows, nullptr, r);
    mixw->stop_daemon();
    const Dist setup = summarize(setups);
    const Dist gbps = summarize(st.window_gbps);
    const Dist fps = summarize(st.window_fps);
    const double probe_p50 = st.probe.quantile_ns(0.5) * 1e-3;
    const double probe_p90 = st.probe.quantile_ns(0.9) * 1e-3;
    const double probe_p99 = st.probe.quantile_ns(0.99) * 1e-3;
    const auto probes = static_cast<unsigned long long>(st.probe.count());
    const std::string p50_note = fmt("probe, from when due, %llu samples", probes);
    const std::string p90_note = fmt("p90 probe over %llu samples, %llu beyond", probes,
                                     static_cast<unsigned long long>(st.probe.beyond(0.9)));
    const std::string p99_note = fmt("p99 probe over %llu samples, %llu beyond", probes,
                                     static_cast<unsigned long long>(st.probe.beyond(0.99)));
    const std::size_t fetches = st.fetch_ms.size();
    const double overhead = mean_wire_overhead_pct(*mixw);
    const double rss = peak_rss_mb();
    const double err = r.attempted ? static_cast<double>(r.errors()) / r.attempted : 1.0;

    r.add_e2e("setup_s", setup.median, "s", setup, fmt("median of %zu set-ups", setups.size()));
    r.add_e2e("throughput_gbps", gbps.median, "GB/s", gbps, "wire bytes to bulk connections");
    r.add_e2e("ops_per_s", fps.median, "1/s", fps, "bulk fetches per second");
    r.add_e2e("latency_p50_us", probe_p50, "us", {}, p50_note);
    r.add_e2e("latency_tail_us", probe_p90, "us", {}, p90_note);
    r.add_e2e("wire_overhead_pct", overhead, "%", {}, "mean over the 4 bulk wires");
    r.add_e2e("peak_rss_mb", rss, "MB");

    r.add_named("setup_s", setup.median, "s", setup);
    r.add_named("fetch_gbps", gbps.median, "GB/s", gbps, fmt("median of %d windows", kWindows));
    r.add_named("fetch_p50_ms", quantile(st.fetch_ms, 0.5), "ms", {},
                fmt("%zu bulk fetches", fetches));
    r.add_named("fetch_p90_ms", quantile(st.fetch_ms, 0.9), "ms", {},
                fmt("%zu bulk fetches, %zu beyond", fetches,
                    fetches - static_cast<std::size_t>(0.9 * fetches)));
    r.add_named("probe_p50_us", probe_p50, "us", {}, p50_note);
    r.add_named("probe_p99_us", probe_p99, "us", {}, p99_note);
    r.add_named("error_rate", err, "ratio", {},
                fmt("%llu errors / %llu attempted", static_cast<unsigned long long>(r.errors()),
                    static_cast<unsigned long long>(r.attempted)));
    r.add_named("peak_rss_mb", rss, "MB");
    for (std::size_t i = 0; i < st.fetch_ms_by_size.size(); ++i)
        r.notes.push_back({fmt("fetch %s", kBulkLabel[i]),
                           fmt("median %.3f ms over %zu fetches (v1 and v2)",
                               quantile(st.fetch_ms_by_size[i], 0.5),
                               st.fetch_ms_by_size[i].size())});
    r.notes.push_back({"probe lag", fmt("median %.3f ms, max %.3f ms behind schedule",
                                        quantile(st.probe_late_ms, 0.5),
                                        quantile(st.probe_late_ms, 1.0))});
    return r;
}

}  // namespace perfbench
