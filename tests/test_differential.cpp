// Differential replay: a seeded multi-tenant traffic plan is served twice,
// once in process (ContentServer::serve_frame / serve_stream) and once
// through a net::Daemon over loopback (Client::roundtrip_frame /
// request_streamed), against two servers holding the same corpus. Every v1
// response frame and every v2 header/body/FIN frame must be byte-identical
// between the two sides — the socket path may change how bytes are copied,
// hashed and written, never which bytes arrive.

#include <gtest/gtest.h>

#include <thread>

#include "net/client.hpp"
#include "net/daemon.hpp"
#include "serve/server.hpp"
#include "stream/chunked.hpp"
#include "workload/datasets.hpp"
#include "workload/traffic.hpp"

namespace recoil::net {
namespace {

using serve::ContentServer;
using serve::ServeRequest;

constexpr u64 kStreamFrame = 4096;

workload::TrafficOptions plan_options() {
    workload::TrafficOptions opt;
    opt.tenants = {{"video", 5, 1.1, 2.0}, {"maps", 4, 0.8, 1.0}};
    opt.requests = 240;
    opt.offered_rps = 1000.0;
    opt.phases = {{workload::PhaseSpec::Kind::flash_crowd, 0.2, 0.4, 1, 0.6},
                  {workload::PhaseSpec::Kind::unique_scan, 0.6, 0.8, 0, 0.5}};
    opt.seed = 20261021;
    return opt;
}

/// The same corpus in any server: one asset per (tenant, key), every third
/// one chunked, sizes varying by key.
void seed_corpus(ContentServer& s, const workload::TrafficOptions& opt) {
    for (const auto& t : opt.tenants)
        for (u32 k = 1; k <= t.keys; ++k) {
            const std::string name = workload::traffic_asset_name(t, k);
            const auto data =
                workload::gen_text(12'000 + 5'000 * k, 7919 * k + t.keys);
            if (k % 3 == 0) {
                stream::ChunkedEncoder enc({11, 8});
                for (std::size_t off = 0; off < data.size(); off += 8'000)
                    enc.add_chunk(std::span<const u8>(data).subspan(
                        off, std::min<std::size_t>(8'000, data.size() - off)));
                s.store().add_chunked(name, enc.finish());
            } else {
                s.store().encode_bytes(name, data, 32);
            }
        }
}

/// The request an arrival turns into: a whole asset at one of four
/// parallelisms, a range for a scan, and now and then a typed error.
ServeRequest request_for(const workload::TrafficOptions& opt,
                         const workload::Arrival& a) {
    const auto& t = opt.tenants[a.tenant];
    ServeRequest req;
    req.asset = workload::traffic_asset_name(t, a.key);
    constexpr u32 kPar[] = {1, 3, 8, 32};
    req.parallelism = kPar[a.index % 4];
    if (a.scan) {
        const u64 lo = (a.index * 7919) % 9'000;
        req.range = {{lo, lo + 300 + a.index % 700}};
        req.accept = serve::kAcceptAll;
    }
    if (a.index % 17 == 5) req.asset = "missing/" + req.asset;
    if (a.index % 23 == 11) req.range = {{50, 10}};  // invalid_range
    return req;
}

TEST(Differential, TrafficPlanFramesAreIdenticalInProcessAndOverTheDaemon) {
    const auto opt = plan_options();
    const auto plan = workload::traffic_plan(opt);
    ContentServer local, remote;
    seed_corpus(local, opt);
    seed_corpus(remote, opt);

    DaemonOptions dopt;
    dopt.stream.max_frame_bytes = kStreamFrame;
    Daemon daemon(remote, dopt);
    std::thread loop([&] { daemon.run(); });
    ClientOptions copt;
    copt.port = daemon.port();
    Client client(copt);

    std::size_t v1 = 0, v2 = 0, errors = 0, frames = 0;
    for (const workload::Arrival& a : plan) {
        const ServeRequest req = request_for(opt, a);
        if (a.index % 2 == 0) {
            const auto frame = serve::encode_request(req);
            const auto want = local.serve_frame(frame);
            const auto got = client.roundtrip_frame(frame);
            ASSERT_EQ(got, want) << "v1 request " << a.index;
            if (!serve::decode_response(got).ok()) ++errors;
            ++v1;
            continue;
        }
        ServeRequest streamed = req;
        streamed.accept |= serve::kAcceptStreamed;
        serve::StreamOptions sopt;
        sopt.max_frame_bytes = kStreamFrame;
        std::vector<std::vector<u8>> want;
        auto stream = local.serve_stream(streamed, sopt);
        while (auto f = stream.next_frame()) want.push_back(std::move(*f));
        std::vector<std::vector<u8>> got;
        try {
            client.request_streamed(req, [&](std::span<const u8> f) {
                got.emplace_back(f.begin(), f.end());
            });
        } catch (const serve::ProtocolError&) {
            // A typed error header ends the stream; the frames still count.
        }
        ASSERT_EQ(got.size(), want.size()) << "v2 request " << a.index;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "v2 request " << a.index << " frame " << i;
        if (!stream.head().ok()) ++errors;
        frames += want.size();
        ++v2;
    }
    daemon.begin_drain();
    loop.join();
    // The plan must have exercised every path it is meant to compare.
    EXPECT_GT(v1, 50u);
    EXPECT_GT(v2, 50u);
    EXPECT_GT(errors, 5u);
    EXPECT_GT(frames, 4 * v2);
}

}  // namespace
}  // namespace recoil::net
