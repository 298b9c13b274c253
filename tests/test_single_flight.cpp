// Tests for the server's single-flight coalescing and the response cache
// behind it, driven by plain threads calling ContentServer directly:
// concurrent cold requests for one response key run exactly one combine and
// share the wire; warm traffic returns shared buffers without copies; and a
// deterministic Zipf workload pins the LRU cache's hit behavior exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <list>
#include <thread>

#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"
#include "workload/datasets.hpp"

namespace recoil::serve {
namespace {

std::vector<u8> small_asset_bytes(u64 n, u64 seed) {
    return test::geometric_symbols<u8>(n, 0.6, 256, seed);
}

/// Serve every request on its own thread, each into its own result slot.
/// `while_running` (if set) runs on the calling thread before the joins —
/// the place to release a combine that is holding its flight open.
std::vector<ServeResult> serve_on_threads(
    ContentServer& server, const std::vector<ServeRequest>& reqs,
    const std::function<void()>& while_running = {}) {
    std::vector<ServeResult> results(reqs.size());
    std::vector<std::thread> threads;
    threads.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        threads.emplace_back([&, i] { results[i] = server.serve(reqs[i]); });
    if (while_running) while_running();
    for (auto& t : threads) t.join();
    return results;
}

/// Serve `reqs` strictly in order, consecutive requests alternating between
/// two threads (an acquire/release turn counter passes the baton): a serial
/// request stream — cache state stays deterministic — whose buffered cache
/// touches land in two different threads' read buffers.
std::vector<ServeResult> serve_alternating(ContentServer& server,
                                           const std::vector<ServeRequest>& reqs) {
    std::vector<ServeResult> results(reqs.size());
    std::atomic<std::size_t> turn{0};
    auto worker = [&](std::size_t parity) {
        for (std::size_t i = parity; i < reqs.size(); i += 2) {
            while (turn.load(std::memory_order_acquire) != i)
                std::this_thread::yield();
            results[i] = server.serve(reqs[i]);
            turn.store(i + 1, std::memory_order_release);
        }
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    return results;
}

TEST(SingleFlight, ColdRequestsCoalesceIntoOneCombine) {
    std::atomic<int> combines{0};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) {
        ++combines;
        gate.wait();  // hold the leader until every follower is parked
    };
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(80000, 31), 32);

    constexpr unsigned kN = 8;
    const std::vector<ServeRequest> reqs(kN,
                                         ServeRequest{"asset", 8, std::nullopt});
    // Deterministic, no sleeps: all kN requests run on their own thread, so
    // kN-1 of them must park on the leader's flight; only then release it.
    const auto results = serve_on_threads(server, reqs, [&] {
        while (server.coalescing_waiters() != kN - 1) std::this_thread::yield();
        release.set_value();
    });

    EXPECT_EQ(combines.load(), 1);  // exactly one combine ran
    unsigned leaders = 0, followers = 0;
    WireBytes shared_wire;
    for (const ServeResult& res : results) {
        ASSERT_TRUE(res.ok()) << res.detail;
        EXPECT_FALSE(res.stats.cache_hit);
        if (res.stats.coalesced) {
            ++followers;
        } else {
            ++leaders;
        }
        if (shared_wire == nullptr) shared_wire = res.wire;
        EXPECT_EQ(res.wire, shared_wire);  // the same buffer, not a copy
    }
    EXPECT_EQ(leaders, 1u);
    EXPECT_EQ(followers, kN - 1);

    const auto t = server.totals();
    EXPECT_EQ(t.requests, kN);
    EXPECT_EQ(t.coalesced_requests, kN - 1);
    EXPECT_EQ(t.bytes_saved, (kN - 1) * shared_wire->size());

    // Warm traffic: the cache returns the same shared buffer, no copy.
    auto warm = server.serve(ServeRequest{"asset", 8, std::nullopt});
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(warm.wire, shared_wire);
    EXPECT_EQ(combines.load(), 1);
}

TEST(SingleFlight, LeaderFailurePropagatesToEveryCoalescedRequest) {
    // Requests park on a flight whose leader fails mid-combine: everyone
    // must get the typed failure, and a retry must start a fresh flight.
    std::atomic<int> combines{0};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) {
        const int n = ++combines;
        if (n == 1) {
            gate.wait();
            raise("injected combine failure");
        }
    };
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(60000, 5), 16);

    constexpr unsigned kN = 4;
    const std::vector<ServeRequest> reqs(kN,
                                         ServeRequest{"asset", 4, std::nullopt});
    const auto results = serve_on_threads(server, reqs, [&] {
        while (server.coalescing_waiters() != kN - 1) std::this_thread::yield();
        release.set_value();
    });

    for (const ServeResult& res : results) {
        EXPECT_EQ(res.code, ErrorCode::internal);
        EXPECT_NE(res.detail.find("injected"), std::string::npos);
    }
    EXPECT_EQ(server.totals().failures, kN);

    // The failed flight is gone; a retry combines successfully.
    auto retry = server.serve(ServeRequest{"asset", 4, std::nullopt});
    ASSERT_TRUE(retry.ok()) << retry.detail;
    EXPECT_EQ(combines.load(), 2);
}

TEST(SingleFlight, ConcurrentMixedRequestsMatchSerialServes) {
    ContentServer server;
    auto data = small_asset_bytes(100000, 13);
    server.store().encode_bytes("asset", data, 64);

    std::vector<ServeRequest> reqs;
    for (u32 p : {2u, 8u, 16u, 2u, 8u, 64u})
        reqs.push_back(ServeRequest{"asset", p, std::nullopt});
    reqs.push_back(ServeRequest{"asset", 1, {{500, 900}}});
    reqs.push_back(ServeRequest{"missing", 1, std::nullopt});

    const auto results = serve_on_threads(server, reqs);
    for (std::size_t i = 0; i + 1 < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].detail;
        auto direct = server.serve(reqs[i]);
        EXPECT_EQ(*results[i].wire, *direct.wire) << "request " << i;
    }
    EXPECT_EQ(results.back().code, ErrorCode::unknown_asset);

    const auto failures = [](const std::vector<ServeResult>& rs) {
        return std::count_if(rs.begin(), rs.end(),
                             [](const ServeResult& r) { return !r.ok(); });
    };
    const auto cache_hits = [](const std::vector<ServeResult>& rs) {
        return static_cast<std::size_t>(
            std::count_if(rs.begin(), rs.end(), [](const ServeResult& r) {
                return r.stats.cache_hit;
            }));
    };
    EXPECT_EQ(results.size(), reqs.size());
    EXPECT_EQ(failures(results), 1);
    double max_latency_seconds = 0;
    for (const ServeResult& r : results)
        max_latency_seconds =
            std::max(max_latency_seconds, r.stats.total_seconds);
    EXPECT_GE(max_latency_seconds, 0.0);

    // A second identical round is fully warm: every valid request hits.
    const auto warm = serve_on_threads(server, reqs);
    EXPECT_EQ(cache_hits(warm), reqs.size() - 1);
}

TEST(SingleFlight, EvictionMidFlightDoesNotResurrectTheCacheEntry) {
    // Regression: a single-flight combine that finishes after evict_asset()
    // used to put its wire back into the cache — a stale entry for a deleted
    // asset, pinned until LRU pressure. The put must be gated on the asset
    // still being current.
    ContentServer* hook_target = nullptr;
    std::atomic<int> combines{0};
    ServerOptions opt;
    opt.combine_hook = [&](const std::string&) {
        // Evict while the combine is in flight (deterministic: the hook runs
        // after the flight is registered and before the wire is built).
        if (++combines == 1) hook_target->evict_asset("asset");
    };
    ContentServer server(opt);
    hook_target = &server;
    const auto v1 = small_asset_bytes(60000, 21);
    server.store().encode_bytes("asset", v1, 16);

    const ServeRequest req{"asset", 8, std::nullopt};
    auto res = server.serve(req);
    ASSERT_TRUE(res.ok()) << res.detail;  // the in-flight request completes
    EXPECT_EQ(server.cache().stats().entries, 0u)
        << "stale wire re-entered the cache after eviction";

    // The asset is gone everywhere; a fresh add under the same name must
    // combine anew (miss), not inherit anything from the evicted flight.
    EXPECT_EQ(server.serve(req).code, ErrorCode::unknown_asset);
    server.store().encode_bytes("asset", small_asset_bytes(60000, 22), 16);
    auto fresh = server.serve(req);
    ASSERT_TRUE(fresh.ok());
    EXPECT_FALSE(fresh.stats.cache_hit);
    EXPECT_EQ(combines.load(), 2);

    // Replacement mid-flight is gated identically: the old generation's
    // wire must not enter the cache under the replaced asset's key.
    opt.combine_hook = [&](const std::string&) {
        if (++combines == 3)
            hook_target->store().encode_bytes("asset", v1, 16);  // replace
    };
    ContentServer replaced(opt);
    hook_target = &replaced;
    combines = 2;
    replaced.store().encode_bytes("asset", small_asset_bytes(50000, 23), 16);
    ASSERT_TRUE(replaced.serve(req).ok());
    EXPECT_EQ(replaced.cache().stats().entries, 0u)
        << "replaced-generation wire entered the cache";
}

TEST(ServeCache, OversizedPayloadsCountAsRejected) {
    // A payload larger than the whole cache is not cached — and no longer
    // silently: the rejected counter surfaces a mis-sized capacity.
    ServerOptions opt;
    opt.cache_capacity_bytes = 64;  // smaller than any real wire
    ContentServer server(opt);
    server.store().encode_bytes("asset", small_asset_bytes(50000, 27), 16);

    const ServeRequest req{"asset", 4, std::nullopt};
    ASSERT_TRUE(server.serve(req).ok());
    ASSERT_TRUE(server.serve(req).ok());
    const CacheStats s = server.cache().stats();
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.insertions, 0u);
    EXPECT_EQ(server.totals().cache_hits, 0u);
}

TEST(ServeCache, ClearResetsContentsButKeepsCumulativeCounters) {
    MetadataCache cache(1 << 20);
    auto wire = std::make_shared<const std::vector<u8>>(100, u8{1});
    cache.put("a", 1, wire);
    ASSERT_NE(cache.get("a", 1), nullptr);
    EXPECT_EQ(cache.get("b", 1), nullptr);
    cache.put("big", 1,
              std::make_shared<const std::vector<u8>>((1 << 20) + 1, u8{2}));

    cache.clear();
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.bytes, 0u);    // current-size fields reset...
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits, 1u);     // ...cumulative counters survive
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.evictions, 0u);  // clear() is not an eviction
    EXPECT_EQ(cache.get("a", 1), nullptr);
}

/// Mirror of MetadataCache's LRU discipline (hit refreshes recency; miss
/// inserts at the front after the combine; oversized payloads skip the
/// cache; eviction pops the tail), fed with the observed wire sizes. The
/// serve path must agree with this model exactly.
u64 simulate_lru_hits(const std::vector<u32>& plan, const std::vector<u64>& sizes,
                      u64 capacity) {
    std::list<std::pair<u32, u64>> lru;  // front = most recently used
    u64 bytes = 0, hits = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        auto it = std::find_if(lru.begin(), lru.end(),
                               [&](const auto& e) { return e.first == plan[i]; });
        if (it != lru.end()) {
            ++hits;
            lru.splice(lru.begin(), lru, it);
            continue;
        }
        if (sizes[i] > capacity) continue;
        lru.emplace_front(plan[i], sizes[i]);
        bytes += sizes[i];
        while (bytes > capacity) {
            bytes -= lru.back().second;
            lru.pop_back();
        }
    }
    return hits;
}

TEST(ServeCache, ZipfTrafficHitRateIsExactAndDeterministic) {
    // Zipf(s=1.2) traffic over 32 client classes against a cache that holds
    // ~8 responses: the skewed head stays resident. Served in order,
    // alternating between two threads, from a seeded plan, so the hit count
    // is exact (and covers cross-thread read buffers) — any change to
    // the cache's eviction order must consciously update this anchor.
    constexpr u32 kKeys = 32;
    constexpr int kRequests = 1200;
    const auto data = small_asset_bytes(60000, 41);

    // Shared traffic model (workload::zipf_plan): keys are parallelism
    // classes 1..kKeys.
    const std::vector<u32> plan = workload::zipf_plan(kKeys, kRequests, 1.2,
                                                      2024);

    // Size the cache off the real wire size so the test tracks format
    // changes instead of hard-coding bytes.
    u64 wire_size = 0;
    {
        ContentServer probe;
        probe.store().encode_bytes("asset", data, 64);
        wire_size = probe.serve(ServeRequest{"asset", 1, std::nullopt})
                        .stats.wire_bytes;
    }
    const u64 capacity = wire_size * 8 + wire_size / 2;

    auto run = [&](std::vector<u64>* sizes_out) {
        ServerOptions opt;
        opt.cache_capacity_bytes = capacity;
        ContentServer server(opt);
        server.store().encode_bytes("asset", data, 64);
        std::vector<ServeRequest> reqs;
        for (const u32 key : plan)
            reqs.push_back(ServeRequest{"asset", key, std::nullopt});
        // The turn counter keeps the request order (and thus LRU state)
        // fully deterministic while two threads take the requests.
        for (const ServeResult& res : serve_alternating(server, reqs)) {
            EXPECT_TRUE(res.ok()) << res.detail;
            if (sizes_out != nullptr) sizes_out->push_back(res.stats.wire_bytes);
        }
        return server.totals();
    };

    std::vector<u64> sizes;
    const auto first = run(&sizes);
    EXPECT_EQ(first.requests, static_cast<u64>(kRequests));
    EXPECT_EQ(first.failures, 0u);
    EXPECT_EQ(first.coalesced_requests, 0u);  // serial: nothing to coalesce

    // The serve path's hit count must match the reference LRU model exactly.
    const u64 expected_hits = simulate_lru_hits(plan, sizes, capacity);
    EXPECT_EQ(first.cache_hits, expected_hits);

    // Zipf concentration keeps the hot head resident: comfortably over half
    // the traffic hits even though only ~8 of 32 classes fit.
    const double hit_rate =
        static_cast<double>(first.cache_hits) / static_cast<double>(kRequests);
    EXPECT_GE(hit_rate, 0.5) << "hit rate regressed: " << hit_rate;
    EXPECT_LT(hit_rate, 1.0);

    // Bit-for-bit deterministic: a fresh identical run reproduces totals.
    const auto second = run(nullptr);
    EXPECT_EQ(second.cache_hits, first.cache_hits);
    EXPECT_EQ(second.wire_bytes, first.wire_bytes);
    EXPECT_EQ(second.bytes_saved, first.bytes_saved);
}

}  // namespace
}  // namespace recoil::serve
