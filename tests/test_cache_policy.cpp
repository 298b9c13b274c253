// Tests for the response cache's LRU discipline and the resource governor:
// eviction order is exact LRU whichever threads served a serial request
// stream (the seeded-Zipf regression in test_single_flight is the
// end-to-end anchor; here the counter edges and the read buffer are
// pinned), and the governor unloads cold demand-loadable assets under a
// global byte budget without ever touching pinned assets or assets pinned
// by in-flight streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <list>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/store.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

WireBytes wire_of(u64 n, u8 fill) {
    return std::make_shared<const std::vector<u8>>(n, fill);
}

/// Fresh store directory per test; removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const char* tag)
        : path(fs::temp_directory_path() /
               (std::string("recoil_policy_") + tag)) {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

std::vector<u8> asset_bytes(u64 n, u64 seed) {
    return test::geometric_symbols<u8>(n, 0.6, 256, seed);
}

// ---- counter edges (satellite: audit rejected/eviction edges) ----

TEST(CachePolicy, ExactCapacityPayloadIsAdmittedNotRejected) {
    MetadataCache cache(100);
    cache.put("a", 1, wire_of(40, 1));
    cache.put("b", 1, wire_of(40, 2));

    // Exactly capacity: fits (alone), so it is an insertion that evicts
    // everything else — never a rejection.
    cache.put("full", 1, wire_of(100, 3));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 100u);
    EXPECT_NE(cache.get("full", 1), nullptr);

    // The same holds after a clear(): the capacity comparison must not
    // drift against the (reset) current size.
    cache.clear();
    cache.put("full2", 1, wire_of(100, 4));
    s = cache.stats();
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 100u);
    EXPECT_NE(cache.get("full2", 1), nullptr);

    // One byte over capacity IS a rejection, and not an insertion.
    cache.put("over", 1, wire_of(101, 5));
    s = cache.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.insertions, 4u);
    EXPECT_EQ(s.entries, 1u);  // resident entry untouched
}

TEST(CachePolicy, OversizedRefreshDropsTheStaleResidentEntry) {
    MetadataCache cache(100);
    cache.put("k", 1, wire_of(40, 1));
    ASSERT_NE(cache.get("k", 1), nullptr);

    // A refresh too large to cache: the resident entry is now known stale,
    // so it must not keep being served. Counted as rejected, NOT as an
    // eviction (nothing displaced it for space).
    cache.put("k", 1, wire_of(101, 2));
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(cache.get("k", 1), nullptr);
}

TEST(CachePolicy, ShrinkToEvictsColdestFirstAndCountsEvictions) {
    MetadataCache cache(1000);
    for (int i = 0; i < 5; ++i)
        cache.put("k" + std::to_string(i), 1, wire_of(100, u8(i)));
    cache.get("k0", 1);  // refresh: k0 is now the hottest

    cache.shrink_to(250);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, 200u);
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_NE(cache.get("k0", 1), nullptr);  // survived via recency
    EXPECT_NE(cache.get("k4", 1), nullptr);
    EXPECT_EQ(cache.get("k1", 1), nullptr);

    // shrink_to does not change the configured capacity: the cache grows
    // right back.
    cache.put("k5", 1, wire_of(100, 9));
    EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(CachePolicy, HitBytesAccumulateForByteHitRate) {
    MetadataCache cache(1000);
    cache.put("a", 1, wire_of(300, 1));
    cache.get("a", 1);
    cache.get("a", 1);
    cache.get("missing", 1);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.hit_bytes, 600u);
    EXPECT_EQ(s.misses, 1u);
}

// ---- read-buffered touches stay exact across threads ----

/// Keys evicted by each step of a get-else-put replay of `plan`, probed
/// with contains() (which does not touch) over every key. Consecutive
/// steps run on alternating threads, strictly one after another: a serial
/// request stream whose buffered touches land in two different read
/// buffers.
std::vector<std::vector<u32>> victim_sequence(
    u64 capacity, const std::vector<u32>& plan,
    const std::vector<WireBytes>& wires) {
    MetadataCache cache(capacity);
    std::vector<std::vector<u32>> victims(plan.size());
    std::vector<bool> resident(wires.size(), false);
    auto step = [&](std::size_t i) {
        const std::string key = "k" + std::to_string(plan[i]);
        if (cache.get(key, 1) == nullptr) cache.put(key, 1, wires[plan[i]]);
        for (u32 k = 0; k < wires.size(); ++k) {
            const bool now = cache.contains("k" + std::to_string(k), 1);
            if (resident[k] && !now) victims[i].push_back(k);
            resident[k] = now;
        }
    };
    std::atomic<std::size_t> turn{0};
    auto worker = [&](std::size_t parity) {
        for (std::size_t i = parity; i < plan.size(); i += 2) {
            while (turn.load(std::memory_order_acquire) != i)
                std::this_thread::yield();
            step(i);
            turn.store(i + 1, std::memory_order_release);
        }
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    return victims;
}

TEST(CachePolicy, SerialRequestsOnTwoThreadsEvictLikeOneThread) {
    constexpr u32 kKeys = 24;
    const std::vector<u32> plan = workload::zipf_plan(kKeys, 3000, 1.1, 77);
    std::vector<WireBytes> wires;
    u64 total = 0;
    for (u32 k = 0; k <= kKeys; ++k) {
        wires.push_back(wire_of(1000 + 97 * k, u8(k)));
        total += wires.back()->size();
    }
    const u64 capacity = total / 4;

    // Reference LRU, independent of the cache: front = most recent.
    std::vector<std::vector<u32>> reference(plan.size());
    {
        std::list<u32> order;
        u64 bytes = 0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const u32 k = plan[i];
            auto it = std::find(order.begin(), order.end(), k);
            if (it != order.end()) {
                order.splice(order.begin(), order, it);
                continue;
            }
            order.push_front(k);
            bytes += wires[k]->size();
            while (bytes > capacity) {
                reference[i].push_back(order.back());
                bytes -= wires[order.back()]->size();
                order.pop_back();
            }
            std::sort(reference[i].begin(), reference[i].end());
        }
    }
    const auto lru = victim_sequence(capacity, plan, wires);
    EXPECT_EQ(lru, reference);
    std::size_t evicted = 0;
    for (const auto& v : lru) evicted += v.size();
    EXPECT_GT(evicted, 100u) << "the plan must exercise eviction";
}

TEST(CachePolicy, MissesStayOutOfTheReadBuffer) {
    // A miss has no entry to move, so it buffers nothing: 64 misses on one
    // thread (a whole buffer, four drain thresholds) neither drain nor drop.
    MetadataCache cache(300);
    cache.put("a", 1, wire_of(100, 1));
    cache.put("b", 1, wire_of(100, 2));
    cache.put("c", 1, wire_of(100, 3));  // "a" is now the coldest
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(cache.get("miss" + std::to_string(i), 1), nullptr);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 64u);
    EXPECT_EQ(s.read_drains, 0u);
    EXPECT_EQ(s.read_buffer_drops, 0u);

    // A hit is still buffered, and shrink_to drains it before choosing a
    // victim: "a" survives and "b" goes.
    ASSERT_NE(cache.get("a", 1), nullptr);
    cache.shrink_to(200);
    s = cache.stats();
    EXPECT_EQ(s.read_drains, 1u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_TRUE(cache.contains("a", 1));
    EXPECT_FALSE(cache.contains("b", 1));
    EXPECT_TRUE(cache.contains("c", 1));
}

// ---- resource governor ----

/// Store + cache + governor under test control (no ContentServer): every
/// pressure decision is driven explicitly, so the assertions are exact.
struct GovernedRig {
    AssetStore store;
    MetadataCache cache;
    explicit GovernedRig(u64 cache_capacity = u64{1} << 20)
        : cache(cache_capacity) {}
};

TEST(Governor, UnloadsColdestBackedAssetsFirst) {
    TempDir dir("coldest");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    for (int i = 0; i < 4; ++i)
        rig.store.encode_bytes("a" + std::to_string(i),
                               asset_bytes(40000, 7 + i), 8);
    const u64 resident = rig.store.resident_bytes();
    ASSERT_GT(resident, 0u);
    const u64 per_asset = resident / 4;

    // Recency: a0 never accessed (coldest), then a1 < a2 < a3.
    ResourceGovernor gov(rig.store, rig.cache,
                         GovernorOptions{resident - per_asset / 2});
    gov.note_access("a1");
    gov.note_access("a2");
    gov.note_access("a3");

    ASSERT_TRUE(gov.over_budget());
    const u64 released = gov.enforce();
    EXPECT_GT(released, 0u);
    EXPECT_FALSE(gov.over_budget());
    // Only the coldest had to go; the budget gap was under one asset.
    EXPECT_EQ(rig.store.find("a0"), nullptr);
    EXPECT_NE(rig.store.find("a1"), nullptr);
    EXPECT_NE(rig.store.find("a2"), nullptr);
    EXPECT_NE(rig.store.find("a3"), nullptr);
    const GovernorStats s = gov.stats();
    EXPECT_EQ(s.unloads, 1u);
    EXPECT_EQ(s.bytes_unloaded, released);
    EXPECT_EQ(s.enforcements, 1u);

    // Unload is pressure relief, not eviction: the asset demand-loads back
    // under the same generation, so cached response keys stay valid.
    auto back = rig.store.resolve("a0");
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(rig.store.is_current(*back));
}

TEST(Governor, RecencyStampMovesOnlyAfterItsGrain) {
    GovernedRig rig;
    const auto asset = rig.store.encode_bytes("a", asset_bytes(20000, 9), 8);
    ResourceGovernor off(rig.store, rig.cache, GovernorOptions{0});
    off.note_access("a");
    EXPECT_EQ(asset->last_access_ns(), 0u) << "disabled governor stamped";

    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{u64{1} << 40});
    gov.note_access("a");
    const u64 first = asset->last_access_ns();
    EXPECT_NE(first, 0u);
    gov.note_access(*asset, steady_now_ns());  // within the grain: kept
    EXPECT_EQ(asset->last_access_ns(), first);
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        2 * ResourceGovernor::kRecencyGrainNs));
    gov.note_access(*asset, steady_now_ns());
    EXPECT_GT(asset->last_access_ns(), first);
    const auto residents = rig.store.residency();
    ASSERT_EQ(residents.size(), 1u);
    EXPECT_EQ(residents[0].last_access_ns, asset->last_access_ns());
}

TEST(Governor, PinnedAssetsRideOutPressure) {
    TempDir dir("pinned");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    for (int i = 0; i < 3; ++i)
        rig.store.encode_bytes("a" + std::to_string(i),
                               asset_bytes(40000, 20 + i), 8);
    const u64 resident = rig.store.resident_bytes();

    // a0 is coldest AND pinned: pressure must skip it and take a1 instead.
    ResourceGovernor gov(rig.store, rig.cache,
                         GovernorOptions{resident - resident / 6});
    gov.pin("a0");
    gov.note_access("a1");
    gov.note_access("a2");
    gov.enforce();
    EXPECT_NE(rig.store.find("a0"), nullptr) << "pinned asset was unloaded";
    EXPECT_EQ(rig.store.find("a1"), nullptr);
    EXPECT_GE(gov.stats().skipped_pinned, 1u);

    gov.unpin("a0");
    EXPECT_FALSE(gov.pinned("a0"));
    gov.enforce();  // under budget now: no-op
    EXPECT_NE(rig.store.find("a0"), nullptr);
}

TEST(Governor, UnbackedAssetsAreNeverUnloaded) {
    // No backing store: unloading would be data loss, so the governor must
    // leave every asset resident and relieve pressure via the cache alone.
    GovernedRig rig(/*cache_capacity=*/u64{1} << 20);
    rig.store.encode_bytes("mem0", asset_bytes(40000, 31), 8);
    rig.store.encode_bytes("mem1", asset_bytes(40000, 32), 8);
    rig.cache.put("k", 1, wire_of(5000, 1));

    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{1});
    gov.enforce();
    EXPECT_NE(rig.store.find("mem0"), nullptr);
    EXPECT_NE(rig.store.find("mem1"), nullptr);
    EXPECT_EQ(gov.stats().unloads, 0u);
    // The cache was shrunk as far as it goes (budget 1 leaves no share).
    EXPECT_EQ(rig.cache.stats().entries, 0u);
    EXPECT_GE(gov.stats().cache_shrinks, 1u);
}

TEST(Governor, InUseAssetsAreSkippedUntilReleased) {
    TempDir dir("inuse");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    rig.store.encode_bytes("held", asset_bytes(40000, 41), 8);

    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{1});
    {
        // An external holder (a stream's Prepared would be one): unloading
        // frees nothing, so the governor must skip it.
        std::shared_ptr<const Asset> ref = rig.store.find("held");
        ASSERT_NE(ref, nullptr);
        gov.enforce();
        EXPECT_NE(rig.store.find("held"), nullptr);
        EXPECT_GE(gov.stats().skipped_in_use, 1u);
    }
    // Reference dropped: the next pass reclaims it.
    gov.enforce();
    EXPECT_EQ(rig.store.find("held"), nullptr);
    EXPECT_EQ(gov.stats().unloads, 1u);
}

TEST(Governor, CacheShrinksOnlyWhenTheStoreCannotGetUnderBudget) {
    TempDir dir("shrink");
    GovernedRig rig;
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    rig.store.encode_bytes("a", asset_bytes(40000, 51), 8);
    rig.store.encode_bytes("b", asset_bytes(40000, 52), 8);
    rig.cache.put("w1", 1, wire_of(4000, 1));
    rig.cache.put("w2", 1, wire_of(4000, 2));
    const u64 resident = rig.store.resident_bytes();

    // Budget leaves room for one (pinned) asset + one cache entry: the
    // pass unloads the unpinned asset, and — because the pinned one cannot
    // go — the cache gives back the rest.
    ResourceGovernor gov(rig.store, rig.cache,
                         GovernorOptions{resident / 2 + 4500});
    gov.pin("b");
    gov.note_access("b");  // a is coldest
    gov.enforce();
    EXPECT_EQ(rig.store.find("a"), nullptr);
    EXPECT_NE(rig.store.find("b"), nullptr);
    const GovernorStats s = gov.stats();
    EXPECT_EQ(s.unloads, 1u);
    EXPECT_GE(s.cache_shrinks, 1u);
    EXPECT_LE(rig.cache.current_bytes() + rig.store.resident_bytes(),
              gov.budget_bytes());
    EXPECT_EQ(rig.cache.stats().entries, 1u);  // one entry fit the share
    EXPECT_EQ(rig.cache.stats().evictions, 1u);
}

TEST(Governor, FutilePassesLatchOffTheHotPathProbe) {
    // A pass that cannot relieve the pressure (only unbacked assets) must
    // not be re-run by the hot path on every request: after a futile pass
    // pressure_actionable() goes false at the stuck usage level, and
    // re-arms when usage grows or the pin set changes. Explicit enforce()
    // always runs regardless.
    GovernedRig rig;
    rig.store.encode_bytes("mem", asset_bytes(40000, 65), 8);
    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{1});

    ASSERT_TRUE(gov.over_budget());
    EXPECT_TRUE(gov.pressure_actionable());
    EXPECT_EQ(gov.enforce(), 0u);  // nothing unloadable
    EXPECT_TRUE(gov.over_budget());
    EXPECT_FALSE(gov.pressure_actionable()) << "futile pass did not latch";

    // Usage grows past the stuck level: actionable again.
    rig.store.encode_bytes("mem2", asset_bytes(40000, 66), 8);
    EXPECT_TRUE(gov.pressure_actionable());
    EXPECT_EQ(gov.enforce(), 0u);
    EXPECT_FALSE(gov.pressure_actionable());

    // Pin-set changes re-arm the probe (eligibility may have changed).
    gov.pin("mem");
    EXPECT_TRUE(gov.pressure_actionable());
}

TEST(Governor, DisabledGovernorNeverActs) {
    GovernedRig rig;
    rig.store.encode_bytes("a", asset_bytes(30000, 61), 8);
    rig.cache.put("k", 1, wire_of(100, 1));
    ResourceGovernor gov(rig.store, rig.cache, GovernorOptions{0});
    EXPECT_FALSE(gov.enabled());
    EXPECT_FALSE(gov.over_budget());
    EXPECT_EQ(gov.enforce(), 0u);
    EXPECT_NE(rig.store.find("a"), nullptr);
    EXPECT_EQ(rig.cache.stats().entries, 1u);
}

TEST(Governor, TransientCacheOvershootNeverUnloads) {
    // A put inserts before it evicts back under capacity. With the budget
    // exactly masters + cache capacity, only that transient can cross it,
    // so a governor probing concurrently must never see it: the cache
    // publishes its size once the put has finished evicting. Each big put
    // lands on a cache full of small entries and evicts dozens of them one
    // by one, which keeps the transient open long enough to be seen.
    TempDir dir("overshoot");
    constexpr u64 kCapacity = u64{64} << 10;
    GovernedRig rig(kCapacity);
    rig.store.attach_backing(std::make_shared<DiskStore>(dir.path));
    for (int i = 0; i < 4; ++i)
        rig.store.encode_bytes("a" + std::to_string(i),
                               asset_bytes(40000, 70 + i), 8);
    const u64 resident = rig.store.resident_bytes();
    ResourceGovernor gov(rig.store, rig.cache,
                         GovernorOptions{resident + kCapacity});

    const WireBytes big = wire_of(48 << 10, 1);
    const WireBytes small = wire_of(1 << 10, 2);
    std::atomic<bool> done{false};
    std::atomic<u64> over_capacity{0};
    std::thread prober([&] {
        while (!done.load(std::memory_order_relaxed)) {
            if (rig.cache.current_bytes() > kCapacity)
                over_capacity.fetch_add(1, std::memory_order_relaxed);
            if (gov.pressure_actionable()) gov.enforce();
        }
    });
    std::vector<std::thread> putters;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    for (int t = 0; t < 2; ++t)
        putters.emplace_back([&, t] {
            for (int i = 0; std::chrono::steady_clock::now() < until; ++i) {
                const std::string key =
                    "t" + std::to_string(t) + "k" + std::to_string(i);
                rig.cache.put(key, 1, i % 64 == 0 ? big : small);
            }
        });
    for (auto& p : putters) p.join();
    done.store(true, std::memory_order_relaxed);
    prober.join();

    EXPECT_GT(rig.cache.stats().evictions, 5000u);  // puts did overshoot
    EXPECT_EQ(over_capacity.load(), 0u);
    EXPECT_EQ(gov.stats().unloads, 0u);
    EXPECT_EQ(rig.store.resident_bytes(), resident);
    EXPECT_LE(rig.cache.current_bytes(), kCapacity);
}

// ---- governor vs in-flight streams (end-to-end through ContentServer) ----

TEST(Governor, StreamPinsItsAssetAcrossAPressurePass) {
    TempDir dir("streampin");
    ServerOptions opt;
    opt.cache_capacity_bytes = u64{1} << 20;
    opt.mem_budget_bytes = 1;  // permanent pressure: every pass unloads all
    ContentServer server(opt);
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));
    const auto data = asset_bytes(60000, 71);
    server.store().encode_bytes("a", data, 16);

    const ServeResult ref = server.serve({"a", 4, std::nullopt});
    ASSERT_TRUE(ref.ok());

    StreamOptions sopt;
    sopt.max_frame_bytes = 4096;
    sopt.use_cache = false;
    {
        ServeStream stream = server.serve_stream(
            {"a", 4, std::nullopt, kAcceptAll | kAcceptStreamed}, sopt);
        auto first = stream.next_frame();
        ASSERT_TRUE(first.has_value());

        // Mid-stream pressure pass: the stream's Prepared holds the asset,
        // so the governor must skip it — unloading would free nothing.
        server.governor().enforce();
        EXPECT_NE(server.store().find("a"), nullptr)
            << "governor unloaded an asset pinned by an in-flight stream";
        EXPECT_GE(server.governor().stats().skipped_in_use, 1u);

        StreamReassembler client(sopt.max_frame_bytes);
        client.feed(*first);
        while (auto frame = stream.next_frame()) client.feed(*frame);
        const ServeResult got = client.result();
        ASSERT_TRUE(got.ok()) << got.detail;
        EXPECT_EQ(*got.wire, *ref.wire);
    }
    // Stream gone (and its producer joined): the next pass may reclaim.
    server.governor().enforce();
    EXPECT_EQ(server.store().find("a"), nullptr);
    // And the asset demand-loads straight back, bit-identically.
    const ServeResult back = server.serve({"a", 4, std::nullopt});
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back.wire, *ref.wire);
}

TEST(Governor, UnloadRacingStreamsStaysBitExact) {
    // The TSan anchor: streams, materialized serves and explicit pressure
    // passes hammer the same small asset set under a budget that is always
    // exceeded. Whatever interleaving happens, every response must be
    // bit-exact and every stream must complete — losing the in-use race
    // costs a re-mmap, never bytes.
    TempDir dir("race");
    ServerOptions opt;
    opt.cache_capacity_bytes = u64{256} << 10;
    opt.mem_budget_bytes = 1;
    ContentServer server(opt);
    server.store().attach_backing(std::make_shared<DiskStore>(dir.path));

    constexpr int kAssets = 3;
    std::vector<std::vector<u8>> reference(kAssets);
    for (int i = 0; i < kAssets; ++i) {
        const std::string name = "a" + std::to_string(i);
        server.store().encode_bytes(name, asset_bytes(30000, 80 + i), 8);
        const ServeResult r = server.serve({name, 4, std::nullopt});
        ASSERT_TRUE(r.ok());
        reference[i] = *r.wire;
    }

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            StreamOptions sopt;
            sopt.max_frame_bytes = 2048;
            sopt.use_cache = (t % 2 == 0);
            for (int i = 0; i < 12; ++i) {
                const int a = (t + i) % kAssets;
                const std::string name = "a" + std::to_string(a);
                ServeStream stream = server.serve_stream(
                    {name, 4, std::nullopt, kAcceptAll | kAcceptStreamed},
                    sopt);
                StreamReassembler client(sopt.max_frame_bytes);
                try {
                    while (auto frame = stream.next_frame())
                        client.feed(*frame);
                    const ServeResult got = client.result();
                    if (!got.ok() || *got.wire != reference[a]) ++failures;
                } catch (const std::exception&) {
                    ++failures;
                }
                const ServeResult mat = server.serve({name, 4, std::nullopt});
                if (!mat.ok() || *mat.wire != reference[a]) ++failures;
            }
        });
    }
    std::thread governor([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            server.governor().enforce();
            std::this_thread::yield();
        }
    });
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_relaxed);
    governor.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.totals().failures, 0u);
    // Everything still demand-loads after the storm.
    for (int i = 0; i < kAssets; ++i) {
        const ServeResult r =
            server.serve({"a" + std::to_string(i), 4, std::nullopt});
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r.wire, reference[i]);
    }
}

}  // namespace
}  // namespace recoil::serve
