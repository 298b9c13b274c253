// Regression tests for the lock-discipline holes surfaced by wiring Clang
// Thread Safety Analysis through the serve stack (src/util/
// thread_annotations.hpp). Each test hammers the exact seam that was fixed
// so the CI TSan job (which builds this file) sees any reintroduction:
//
//  1. AssetStore::attach_backing used to read disk_ (guarded by mu_) after
//     dropping mu_ when rebinding disk_* metrics. The fix snapshots the
//     handle while locked; this test races attach/rebind against readers
//     resolving through the store and polling the registry.
//
//  2. ContentServer's Flight used to publish into the flights_ map first
//     and set its fields afterwards. A flight is now fully built before it
//     is published; this test holds a streamed leader inside its combine
//     while a pack of streamed followers park on the flight, so any
//     post-publication write would be a follower-visible race.
//
//  3. MetadataCache::get buffers its recency touches per thread and drains
//     them under try_lock of the recency mutex; every mutator drains first.
//     This test mixes gets with every mutator across threads and checks the
//     accounting once they quiesce, while a watcher checks that the
//     governor-visible size never exceeds capacity.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/xoshiro.hpp"

namespace recoil::serve {
namespace {

namespace fs = std::filesystem;

constexpr u8 kAcceptStream = kAcceptAll | kAcceptStreamed;

std::vector<u8> asset_bytes(u64 n, u64 seed) {
    return test::geometric_symbols<u8>(n, 0.6, 256, seed);
}

/// Fresh store directory per test; removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const char* tag)
        : path(fs::temp_directory_path() /
               (std::string("recoil_tsa_") + tag)) {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(ThreadSafety, AttachBackingRacesReadersAndMetricsPolls) {
    TempDir dir("attach");
    AssetStore seeded;
    seeded.attach_backing(std::make_shared<DiskStore>(dir.path));
    seeded.encode_bytes("a", asset_bytes(20000, 7), 8);
    seeded.encode_bytes("b", asset_bytes(20000, 11), 8);

    AssetStore store;
    obs::MetricsRegistry reg;
    store.bind_metrics(&reg);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    // Readers exercise every disk_-adjacent path: demand-load, the backing
    // accessor, currency checks, and registry snapshots (which poll the
    // disk_* callbacks attach_backing rebinds).
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&store, &reg, &stop, t] {
            while (!stop.load(std::memory_order_relaxed)) {
                auto a = store.resolve(t % 2 == 0 ? "a" : "b");
                if (a != nullptr) (void)store.is_current(*a);
                (void)store.backing();
                (void)store.residency();
                (void)reg.snapshot();
            }
        });
    }
    // Re-attach the same corpus repeatedly: each attach swaps disk_ under
    // mu_ and rebinds the disk_* callbacks under disk_mu_.
    for (int i = 0; i < 50; ++i) {
        store.attach_backing(std::make_shared<DiskStore>(dir.path));
        store.unload("a");
        store.unload("b");
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& r : readers) r.join();

    ASSERT_NE(store.resolve("a"), nullptr);
    ASSERT_NE(store.resolve("b"), nullptr);
    const auto snap = reg.snapshot().to_json();
    EXPECT_NE(snap.find("disk_assets"), std::string::npos);
}

TEST(ThreadSafety, StreamingFlightFieldsAreFixedBeforePublication) {
    constexpr unsigned kFollowers = 6;
    std::atomic<int> combines{0};
    ContentServer* srv = nullptr;
    ServerOptions opt;
    // The leader's combine holds the flight open until every follower is
    // parked on it: each follower reads the flight through its wait path
    // while the leader is still mid-combine.
    opt.combine_hook = [&](const std::string&) {
        if (++combines != 1) return;
        while (srv->coalescing_waiters() < kFollowers)
            std::this_thread::yield();
    };
    ContentServer server(opt);
    srv = &server;
    server.store().encode_bytes("asset", asset_bytes(60000, 13), 16);

    StreamOptions sopt;
    sopt.max_frame_bytes = 2048;
    std::optional<ServeStream> leader;
    std::thread lead([&] {
        leader.emplace(server.serve_stream(
            {"asset", 4, std::nullopt, kAcceptStream}, sopt));
    });
    while (combines.load() == 0) std::this_thread::yield();

    std::vector<std::thread> pullers;
    std::vector<u64> framed(kFollowers, 0);
    std::vector<char> ok(kFollowers, 0);
    for (unsigned i = 0; i < kFollowers; ++i) {
        pullers.emplace_back([&server, &sopt, &framed, &ok, i] {
            ServeStream s = server.serve_stream(
                {"asset", 4, std::nullopt, kAcceptStream}, sopt);
            u64 n = 0;
            while (auto frame = s.next_frame()) ++n;
            framed[i] = n;
            ok[i] = s.head().ok() && s.done();
        });
    }
    // The leader returns only after every follower parked on its flight.
    lead.join();
    for (auto& p : pullers) p.join();
    ASSERT_TRUE(leader->head().ok()) << leader->head().detail;
    u64 leader_frames = 0;
    while (auto frame = leader->next_frame()) ++leader_frames;

    EXPECT_EQ(combines.load(), 1);  // one producer; everyone else replayed
    EXPECT_GE(leader_frames, 3u);   // header + >=1 body + fin
    for (unsigned i = 0; i < kFollowers; ++i) {
        EXPECT_TRUE(ok[i]) << "follower " << i;
        EXPECT_GE(framed[i], 3u) << "follower " << i;
    }
}

TEST(ThreadSafety, ReadBufferedCacheMixesGetsWithMutators) {
    constexpr u32 kKeys = 24;
    constexpr u64 kCapacity = 16 * 1000;
    constexpr int kThreads = 4;
    constexpr int kOps = 20000;
    std::vector<WireBytes> wires;
    for (u32 k = 0; k < kKeys; ++k)
        wires.push_back(
            std::make_shared<const std::vector<u8>>(500 + 40 * k, u8(k)));
    // Key k lives under one parallelism; odd ops also cache a derived key
    // ("name\n...", as range responses do) that erase_asset must reach.
    auto name = [](u32 k) { return "a" + std::to_string(k); };
    auto parallelism = [](u32 k) { return 1 + k % 2; };
    const std::string kDerived = "\nrange";

    MetadataCache cache(kCapacity);
    std::atomic<u64> gets{0};
    std::atomic<int> errors{0};
    std::atomic<u64> over_capacity{0};
    std::atomic<bool> done{false};
    std::thread watcher([&] {
        while (!done.load(std::memory_order_relaxed))
            if (cache.current_bytes() > kCapacity)
                over_capacity.fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            Xoshiro256 rng(1000 + t);
            u64 issued = 0;
            for (int i = 0; i < kOps; ++i) {
                const u32 op = static_cast<u32>(rng() % 100);
                const u32 k = static_cast<u32>(rng() % kKeys);
                try {
                    if (op < 70) {
                        ++issued;
                        cache.get(name(k), parallelism(k));
                    } else if (op < 85) {
                        cache.put(name(k), parallelism(k), wires[k], k);
                    } else if (op < 92) {
                        cache.put(name(k) + kDerived, 0, wires[k]);
                    } else if (op < 96) {
                        cache.erase_asset(name(k));
                    } else if (op < 99) {
                        cache.shrink_to(kCapacity / 2);
                    } else {
                        cache.clear();
                    }
                } catch (const std::exception&) {
                    // e.g. "cache: unknown entry id"
                    errors.fetch_add(1, std::memory_order_relaxed);
                }
            }
            gets.fetch_add(issued, std::memory_order_relaxed);
        });
    for (auto& th : threads) th.join();
    done.store(true, std::memory_order_relaxed);
    watcher.join();

    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(over_capacity.load(), 0u);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, gets.load());
    u64 bytes = 0;
    u64 entries = 0;
    for (u32 k = 0; k < kKeys; ++k) {
        if (cache.contains(name(k), parallelism(k))) {
            bytes += wires[k]->size();
            ++entries;
        }
        if (cache.contains(name(k) + kDerived, 0)) {
            bytes += wires[k]->size();
            ++entries;
        }
    }
    EXPECT_EQ(s.bytes, bytes);
    EXPECT_EQ(s.entries, entries);
    EXPECT_LE(s.bytes, kCapacity);
    EXPECT_EQ(cache.current_bytes(), s.bytes);
    // The recency list tracks exactly the resident entries: shrinking to
    // nothing finds a victim for every one of them.
    cache.shrink_to(0);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.current_bytes(), 0u);
}

}  // namespace
}  // namespace recoil::serve
