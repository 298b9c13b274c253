#include "serve/metadata_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace recoil::serve {

MetadataCache::MetadataCache(u64 capacity_bytes) : capacity_(capacity_bytes) {}

WireBytes MetadataCache::get(std::string_view asset_key, u32 parallelism,
                             u32* splits_out, u64 now_ns) {
    const KeyView key = key_view(asset_key, parallelism);
    WireBytes wire;
    EntryId id = kNoEntry;
    {
        Shard& sh = shards_[shard_of(key.hash)];
        util::MutexLock lk(sh.mu);
        auto it = sh.map.find(key);
        if (it != sh.map.end()) {
            wire = it->second.wire;
            id = it->second.id;
            if (splits_out != nullptr) *splits_out = it->second.splits;
        }
    }
    ReadBuffer& buf = read_buffers_[util::thread_stripe()];
    if (wire == nullptr) {
        util::MutexLock lk(buf.mu);
        ++buf.misses;
        return wire;
    }
    const u64 stamp = now_ns != 0 ? now_ns : steady_now_ns();
    u32 held = 0;
    {
        util::MutexLock lk(buf.mu);
        ++buf.hits;
        buf.hit_bytes += wire->size();
        held = buf.size.load(std::memory_order_relaxed);
        if (held < kReadBufferSlots) {
            buf.events[held++] = ReadEvent{stamp, id};
            buf.size.store(held, std::memory_order_relaxed);
        } else {
            ++buf.drops;
        }
    }
    // Readers never wait for the recency list: whoever holds lru_mu_ is a
    // mutator (which drains first) or another reader's drain.
    if (held >= kDrainAt && lru_mu_.try_lock()) {
        util::MutexLock lk(lru_mu_, util::adopt_lock);
        drain_locked();
    }
    return wire;
}

bool MetadataCache::contains(std::string_view asset_key,
                             u32 parallelism) const {
    const KeyView key = key_view(asset_key, parallelism);
    Shard& sh = shards_[shard_of(key.hash)];
    util::MutexLock lk(sh.mu);
    return sh.map.contains(key);
}

void MetadataCache::drain_locked() {
    drained_.clear();
    for (ReadBuffer& buf : read_buffers_) {
        if (buf.size.load(std::memory_order_relaxed) == 0) continue;
        util::MutexLock lk(buf.mu);
        const u32 n = buf.size.load(std::memory_order_relaxed);
        drained_.insert(drained_.end(), buf.events.begin(),
                        buf.events.begin() + n);
        buf.size.store(0, std::memory_order_relaxed);
    }
    if (drained_.empty()) return;
    // The merge across buffers is what keeps a serial request stream's
    // recency exact when consecutive requests ran on different threads. A
    // buffer only one thread appends to is in stamp order already.
    const auto by_stamp = [](const ReadEvent& a, const ReadEvent& b) {
        return a.stamp_ns < b.stamp_ns;
    };
    if (!std::is_sorted(drained_.begin(), drained_.end(), by_stamp))
        std::stable_sort(drained_.begin(), drained_.end(), by_stamp);
    for (const ReadEvent& ev : drained_) {
        // An entry erased since its hit was buffered is no longer tracked.
        auto it = by_id_.find(ev.id);
        if (it != by_id_.end())
            lru_.splice(lru_.begin(), lru_, it->second.lru);
    }
    ++stats_.read_drains;
}

void MetadataCache::put(std::string_view asset_key, u32 parallelism,
                        WireBytes wire, u32 splits) {
    RECOIL_CHECK(wire != nullptr, "cache put: null payload");
    // Declared before the lock: displaced wires are dropped after it.
    std::vector<WireBytes> released;
    util::MutexLock lk(lru_mu_);
    drain_locked();
    const KeyView key = key_view(asset_key, parallelism);
    const std::size_t si = shard_of(key.hash);
    Shard& sh = shards_[si];
    const u64 size = wire->size();
    const bool fits = size <= capacity_;
    EntryId resident = kNoEntry;
    {
        util::MutexLock sl(sh.mu);
        auto it = sh.map.find(key);
        if (it != sh.map.end()) {
            resident = it->second.id;
            if (fits) {
                stats_.bytes = stats_.bytes - it->second.wire->size() + size;
                released.push_back(
                    std::exchange(it->second.wire, std::move(wire)));
                it->second.splits = splits;
            }
        }
    }
    if (!fits) {  // would evict everything for nothing
        ++stats_.rejected;
        // A resident entry under this key is now known stale: serving it
        // would hand out superseded bytes, so it goes too (not an eviction
        // — nothing displaced it for space).
        if (resident != kNoEntry) erase_entry_locked(resident, released);
        publish_bytes_locked();
        return;
    }
    if (resident != kNoEntry) {
        lru_.splice(lru_.begin(), lru_, by_id_.at(resident).lru);
    } else {
        const EntryId id = next_id_++;
        {
            util::MutexLock sl(sh.mu);
            auto [pos, inserted] = sh.map.emplace(
                Key{std::string(asset_key), parallelism, key.hash},
                Entry{std::move(wire), splits, id});
            lru_.push_front(id);
            by_id_[id] = Location{si, &pos->first, lru_.begin()};
        }
        stats_.bytes += size;
        ++stats_.entries;
        ++stats_.insertions;
    }
    // Peak is sampled before eviction trims back under capacity: it reports
    // the most bytes the cache ever actually held.
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
    evict_until_locked(capacity_, released);
    publish_bytes_locked();
}

void MetadataCache::erase_entry_locked(EntryId id,
                                       std::vector<WireBytes>& released) {
    auto idx = by_id_.find(id);
    RECOIL_CHECK(idx != by_id_.end(), "cache: unknown entry id");
    const Location loc = idx->second;
    by_id_.erase(idx);
    lru_.erase(loc.lru);
    Shard& sh = shards_[loc.shard];
    util::MutexLock sl(sh.mu);
    auto it = sh.map.find(*loc.key);
    RECOIL_CHECK(it != sh.map.end(), "cache: indexed entry missing");
    stats_.bytes -= it->second.wire->size();
    --stats_.entries;
    released.push_back(std::move(it->second.wire));
    sh.map.erase(it);
}

void MetadataCache::evict_until_locked(u64 target_bytes,
                                       std::vector<WireBytes>& released) {
    while (stats_.bytes > target_bytes && stats_.entries > 0) {
        RECOIL_CHECK(!lru_.empty(), "cache: recency list lost an entry");
        erase_entry_locked(lru_.back(), released);
        ++stats_.evictions;
    }
}

void MetadataCache::erase_asset(std::string_view asset_key) {
    std::vector<WireBytes> released;
    util::MutexLock lk(lru_mu_);
    drain_locked();
    for (Shard& sh : shards_) {
        util::MutexLock sl(sh.mu);
        for (auto it = sh.map.begin(); it != sh.map.end();) {
            const std::string_view a = it->first.asset;
            const bool derived = a.size() > asset_key.size() &&
                                 a.starts_with(asset_key) &&
                                 a[asset_key.size()] == '\n';
            if (a == asset_key || derived) {
                stats_.bytes -= it->second.wire->size();
                --stats_.entries;
                auto idx = by_id_.find(it->second.id);
                RECOIL_CHECK(idx != by_id_.end(), "cache: unindexed entry");
                lru_.erase(idx->second.lru);
                by_id_.erase(idx);
                released.push_back(std::move(it->second.wire));
                it = sh.map.erase(it);
            } else {
                ++it;
            }
        }
    }
    publish_bytes_locked();
}

void MetadataCache::shrink_to(u64 target_bytes) {
    std::vector<WireBytes> released;
    util::MutexLock lk(lru_mu_);
    drain_locked();
    evict_until_locked(target_bytes, released);
    publish_bytes_locked();
}

void MetadataCache::clear() {
    std::vector<std::unordered_map<Key, Entry, KeyHash, KeyEq>> released;
    util::MutexLock lk(lru_mu_);
    // Drained first, so no buffered touch outlives the entries it names.
    drain_locked();
    released.reserve(kShards);
    for (Shard& sh : shards_) {
        util::MutexLock sl(sh.mu);
        released.emplace_back().swap(sh.map);
    }
    by_id_.clear();
    lru_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
    publish_bytes_locked();
}

CacheStats MetadataCache::stats() const {
    CacheStats s;
    {
        util::MutexLock lk(lru_mu_);
        s = stats_;
    }
    for (ReadBuffer& buf : read_buffers_) {
        util::MutexLock lk(buf.mu);
        s.hits += buf.hits;
        s.misses += buf.misses;
        s.hit_bytes += buf.hit_bytes;
        s.read_buffer_drops += buf.drops;
    }
    return s;
}

void MetadataCache::bind_metrics(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return;
    using obs::MetricKind;
    // Polled callbacks reading the same counters the stats() API reports:
    // the registry view is bit-identical by construction and the cache hot
    // path gains no extra writes.
    auto poll = [this](u64 CacheStats::* field) {
        return [this, field] { return stats().*field; };
    };
    reg->register_callback("cache_hits_total", MetricKind::counter,
                           poll(&CacheStats::hits));
    reg->register_callback("cache_misses_total", MetricKind::counter,
                           poll(&CacheStats::misses));
    reg->register_callback("cache_hit_bytes_total", MetricKind::counter,
                           poll(&CacheStats::hit_bytes));
    reg->register_callback("cache_insertions_total", MetricKind::counter,
                           poll(&CacheStats::insertions));
    reg->register_callback("cache_evictions_total", MetricKind::counter,
                           poll(&CacheStats::evictions));
    reg->register_callback("cache_rejected_total", MetricKind::counter,
                           poll(&CacheStats::rejected));
    reg->register_callback("cache_peak_bytes", MetricKind::gauge,
                           poll(&CacheStats::peak_bytes));
    reg->register_callback("cache_bytes", MetricKind::gauge,
                           poll(&CacheStats::bytes));
    reg->register_callback("cache_entries", MetricKind::gauge,
                           poll(&CacheStats::entries));
    reg->register_callback("cache_capacity_bytes", MetricKind::gauge,
                           [this] { return capacity_bytes(); });
    reg->register_callback("cache_read_buffer_drops_total",
                           MetricKind::counter,
                           poll(&CacheStats::read_buffer_drops));
    reg->register_callback("cache_read_drains_total", MetricKind::counter,
                           poll(&CacheStats::read_drains));
}

void MetadataCache::publish_bytes_locked() {
    bytes_now_.store(stats_.bytes, std::memory_order_relaxed);
}

}  // namespace recoil::serve
