#pragma once
// Cache of serialized serve responses keyed by (asset key, client
// parallelism). The §3.3 serving path is cheap but not free — combine_splits
// walks M split points and the wire re-serialization copies the bitstream —
// and real traffic concentrates on a few client classes (phone / laptop /
// GPU), so the hot responses are cached whole and handed out by reference.
// Range responses reuse the same cache under a derived asset key (see
// server.cpp), hence the string key rather than an asset pointer.
//
// Eviction is exact LRU by bytes: one recency list, a hit or a refresh
// moves the entry to the front, and a put past capacity evicts from the
// back until the cache fits again. Every new entry is admitted.
//
// Concurrency (docs/serve_cache.md, "Read path"). A warm hit shares no
// written cache line with other callers except its key's shard lock and the
// returned wire's refcount:
//   - the map is split into kShards shards, each under its own mutex, and
//     looked up without copying the key string;
//   - get() does not move the entry inline: a hit appends a stamped touch
//     to its thread's read buffer, and a full-enough buffer is drained into
//     the recency list under try_lock of lru_mu_, so readers never wait on
//     recency bookkeeping. A miss buffers nothing;
//   - hits/misses/hit_bytes are counted per read-buffer stripe, under the
//     stripe lock the get takes anyway.
// Every mutator (put, shrink_to, erase_asset, clear) takes lru_mu_ and
// drains every buffer first, merging the touches by their steady-clock
// stamps so the list sees accesses in the order they happened: a serial
// request stream yields exactly the victims an inline LRU would, whichever
// threads served it. Touches of entries erased since they were buffered are
// skipped.
// Lock order: lru_mu_, then a shard mutex or a read-buffer mutex, one at a
// time.

#include <array>
#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "util/ints.hpp"
#include "util/striped_counter.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

/// Counters are cumulative over the cache's lifetime (they survive clear());
/// `bytes`/`entries` describe the current contents only.
struct CacheStats {
    u64 hits = 0;
    u64 misses = 0;
    /// Payload bytes served from the cache (the byte-hit-rate numerator:
    /// hit_bytes / total wire bytes served). Cumulative, survives clear().
    u64 hit_bytes = 0;
    u64 insertions = 0;
    u64 evictions = 0;
    /// Puts dropped because the payload alone exceeds the whole cache
    /// capacity. A persistently rising value means the capacity is
    /// mis-sized for the traffic, which a silent drop used to hide.
    u64 rejected = 0;
    /// High-water mark of `bytes` over the cache's lifetime. Like the
    /// cumulative counters it survives clear() (which resets the current
    /// size, not the history), so the memory story stays observable across
    /// operational clears.
    u64 peak_bytes = 0;
    u64 bytes = 0;    ///< current cached payload bytes
    u64 entries = 0;  ///< current entry count
    /// Buffered touches dropped because the caller's read buffer was full
    /// while another thread held the recency lock: hits the LRU order never
    /// saw. Rises only under contention; cumulative.
    u64 read_buffer_drops = 0;
    /// Drain passes that applied buffered hits to the recency list.
    /// Cumulative.
    u64 read_drains = 0;
};

class MetadataCache {
public:
    explicit MetadataCache(u64 capacity_bytes);

    /// nullptr on miss. A hit makes the entry the most recently used and,
    /// when `splits_out` is given, reports the split count stored with the
    /// entry. The touch is buffered and reaches the recency list before the
    /// next put/shrink_to/erase_asset/clear, in the order of its stamp:
    /// `now_ns` (steady_now_ns()), or the clock read here when 0. A caller
    /// that took a timestamp at the start of the same request passes it and
    /// saves the clock read; serial requests still stamp in the order they
    /// ran.
    WireBytes get(std::string_view asset_key, u32 parallelism,
                  u32* splits_out = nullptr, u64 now_ns = 0)
        RECOIL_EXCLUDES(lru_mu_);

    /// Insert (or refresh) an entry, evicting least-recently-used entries
    /// past capacity. Payloads larger than the whole cache are never cached
    /// — counted in CacheStats::rejected (an oversized refresh also drops
    /// the now-stale resident entry rather than keep serving superseded
    /// bytes). An entry exactly equal to capacity is admitted (it fits —
    /// alone). `splits` is the work-item count the response carries,
    /// echoed back by get().
    void put(std::string_view asset_key, u32 parallelism, WireBytes wire,
             u32 splits = 0) RECOIL_EXCLUDES(lru_mu_);

    /// Drop every entry for `asset_key` (all parallelisms, and derived keys
    /// of the form "asset_key\n..." such as range responses). Not an
    /// eviction: the evictions counter is untouched.
    void erase_asset(std::string_view asset_key) RECOIL_EXCLUDES(lru_mu_);

    /// Evict least-recently-used entries until current bytes <= `target_bytes`
    /// (counted as evictions — this is capacity pressure, from the resource
    /// governor rather than from an insertion). The configured capacity is
    /// unchanged: the cache may grow back.
    void shrink_to(u64 target_bytes) RECOIL_EXCLUDES(lru_mu_);

    /// Drop every entry. Resets the current-size fields (`bytes`,
    /// `entries`) only; cumulative counters (hits/misses/insertions/
    /// evictions/rejected) survive, so observability across a clear() is
    /// not lost. Dropped entries do not count as evictions.
    void clear() RECOIL_EXCLUDES(lru_mu_);
    /// Residency probe: true when (asset_key, parallelism) is cached. No
    /// stats, no touch.
    bool contains(std::string_view asset_key, u32 parallelism) const;
    CacheStats stats() const RECOIL_EXCLUDES(lru_mu_);
    /// Publish this cache through `reg` as polled cache_* metrics (see
    /// docs/observability.md for the name catalogue). The callbacks read the
    /// same counters stats() reports, so both views are bit-identical.
    /// nullptr detaches nothing — binding is idempotent and re-binding a new
    /// registry is not supported (bind once at server construction).
    void bind_metrics(obs::MetricsRegistry* reg);
    u64 capacity_bytes() const noexcept { return capacity_; }
    /// Lock-free mirror of stats().bytes for cheap pressure checks. Updated
    /// once per mutator, after it has evicted back under capacity, so it
    /// never shows a put's transient overshoot.
    u64 current_bytes() const noexcept {
        return bytes_now_.load(std::memory_order_relaxed);
    }

private:
    static constexpr std::size_t kShards = 32;
    /// Buffered hits per thread stripe; a hit that finds its buffer at
    /// kDrainAt tries to drain, one that finds it full drops its touch.
    static constexpr u32 kReadBufferSlots = 64;
    static constexpr u32 kDrainAt = 16;

    /// Map keys carry their hash, computed once per call: it picks the
    /// shard and is the map's hash.
    struct Key {
        std::string asset;
        u32 parallelism = 0;
        u64 hash = 0;
    };
    struct KeyView {
        std::string_view asset;
        u32 parallelism = 0;
        u64 hash = 0;
    };
    struct KeyHash {
        using is_transparent = void;
        std::size_t operator()(const Key& k) const noexcept { return k.hash; }
        std::size_t operator()(const KeyView& k) const noexcept {
            return k.hash;
        }
    };
    struct KeyEq {
        using is_transparent = void;
        template <class A, class B>
        bool operator()(const A& a, const B& b) const noexcept {
            return a.hash == b.hash && a.parallelism == b.parallelism &&
                   std::string_view(a.asset) == std::string_view(b.asset);
        }
    };
    static KeyView key_view(std::string_view asset, u32 parallelism) noexcept {
        return {asset, parallelism,
                std::hash<std::string_view>{}(asset) * 0x9e3779b97f4a7c15ull ^
                    parallelism};
    }
    static std::size_t shard_of(u64 hash) noexcept {
        return static_cast<std::size_t>((hash * 0xff51afd7ed558ccdull) >> 59);
    }
    static_assert(kShards == 32, "shard_of() takes the top 5 bits");

    /// Per-entry handle, assigned at insertion and unique over the cache's
    /// lifetime (never reused, so a buffered touch of an erased entry can
    /// never land on its successor).
    using EntryId = u64;
    static constexpr EntryId kNoEntry = 0;

    struct Entry {
        WireBytes wire;
        u32 splits = 0;
        EntryId id = kNoEntry;
    };
    struct alignas(util::kCacheLine) Shard {
        util::Mutex mu;
        std::unordered_map<Key, Entry, KeyHash, KeyEq> map
            RECOIL_GUARDED_BY(mu);
    };
    /// Where an entry lives: its shard, its key (pointing into the shard's
    /// node, stable until the node is erased under lru_mu_) and its place
    /// in the recency list.
    struct Location {
        std::size_t shard = 0;
        const Key* key = nullptr;
        std::list<EntryId>::iterator lru;
    };

    /// One buffered hit: its steady-clock stamp and the entry it hit.
    struct ReadEvent {
        u64 stamp_ns = 0;
        EntryId id = kNoEntry;
    };
    /// One thread stripe's read buffer, plus that stripe's share of the
    /// read counters: a get takes this lock anyway, so counting costs no
    /// extra atomic, and stats() sums the stripes.
    struct alignas(util::kCacheLine) ReadBuffer {
        util::Mutex mu;
        std::array<ReadEvent, kReadBufferSlots> events RECOIL_GUARDED_BY(mu);
        /// Events held. Written only under mu; also read without it by
        /// drain_locked() to skip empty buffers (documented lock-free
        /// escape: a racing append is concurrent with the drain anyway).
        std::atomic<u32> size{0};
        u64 hits RECOIL_GUARDED_BY(mu) = 0;
        u64 misses RECOIL_GUARDED_BY(mu) = 0;
        u64 hit_bytes RECOIL_GUARDED_BY(mu) = 0;
        u64 drops RECOIL_GUARDED_BY(mu) = 0;
    };

    /// Apply every buffered hit to the recency list in stamp order.
    void drain_locked() RECOIL_REQUIRES(lru_mu_);
    /// Remove one entry from its shard and the recency list; its wire moves
    /// into `released`, to be dropped once the locks are. Not counted here.
    void erase_entry_locked(EntryId id, std::vector<WireBytes>& released)
        RECOIL_REQUIRES(lru_mu_);
    void evict_until_locked(u64 target_bytes, std::vector<WireBytes>& released)
        RECOIL_REQUIRES(lru_mu_);
    /// Publish stats_.bytes to bytes_now_: the last step of every mutator.
    void publish_bytes_locked() RECOIL_REQUIRES(lru_mu_);

    u64 capacity_;  ///< immutable after construction
    /// Guards the recency list, the id index and the mutator-side stats;
    /// every map mutation holds it as well as the shard's own mutex.
    mutable util::Mutex lru_mu_;
    /// Entry ids, front = most recently used; the victim is the back.
    std::list<EntryId> lru_ RECOIL_GUARDED_BY(lru_mu_);
    /// Entry id -> location: the tracked set the drain checks buffered
    /// touches against, and the victim lookup.
    std::unordered_map<EntryId, Location> by_id_ RECOIL_GUARDED_BY(lru_mu_);
    EntryId next_id_ RECOIL_GUARDED_BY(lru_mu_) = 1;
    /// Mutator-side counters and gauges; hits/misses/hit_bytes/drops live
    /// in the read buffers instead.
    CacheStats stats_ RECOIL_GUARDED_BY(lru_mu_);
    /// Drain scratch, kept to avoid an allocation per drain.
    std::vector<ReadEvent> drained_ RECOIL_GUARDED_BY(lru_mu_);
    mutable std::array<Shard, kShards> shards_;  ///< mutable: contains()
    mutable std::array<ReadBuffer, util::kStripes> read_buffers_;  ///< stats()
    /// Lock-free mirror of stats_.bytes (documented escape): written only
    /// by publish_bytes_locked() under lru_mu_, read without it by
    /// current_bytes() so the governor's pressure probe never contends
    /// with the cache.
    std::atomic<u64> bytes_now_{0};
};

}  // namespace recoil::serve
