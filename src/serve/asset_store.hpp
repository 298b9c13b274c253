#pragma once
// Thread-safe name -> Asset map. Assets are immutable once added and held by
// shared_ptr, so a concurrent reader's pointer stays valid across erase().
// Re-adding a name replaces the asset under a fresh uid.
//
// With a backing DiskStore attached the map becomes a view of the disk
// corpus: add_* write through durably before publishing, resolve()
// demand-loads misses as zero-copy views of the mmapped container, and the
// uid (generation) is carried across restarts — so MetadataCache keys stay
// valid over unload/reload cycles and the asset corpus is bounded by disk,
// not RAM.

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/asset.hpp"
#include "serve/store.hpp"
#include "util/thread_annotations.hpp"

namespace recoil::obs {
class MetricsRegistry;
}

namespace recoil::serve {

class AssetStore {
public:
    std::shared_ptr<const Asset> add_file(std::string name, format::RecoilFile f);
    std::shared_ptr<const Asset> add_chunked(std::string name,
                                             stream::ChunkedStream s);

    /// Encode raw bytes once with `max_splits`-way metadata and store the
    /// resulting container (order-0 static model over the byte histogram).
    std::shared_ptr<const Asset> encode_bytes(std::string name,
                                              std::span<const u8> data,
                                              u32 max_splits, u32 prob_bits = 11);

    /// Attach a disk backing store: subsequent add_* write through durably,
    /// resolve() demand-loads misses, and uids continue above every stored
    /// generation. Attach before adding assets (earlier adds stay
    /// memory-only).
    void attach_backing(std::shared_ptr<DiskStore> disk)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    std::shared_ptr<DiskStore> backing() const RECOIL_EXCLUDES(mu_);

    /// In-memory lookup only; never touches the backing store.
    std::shared_ptr<const Asset> find(const std::string& name) const
        RECOIL_EXCLUDES(mu_);
    /// find(), then on a miss demand-load from the backing store (mmap +
    /// zero-copy parse) under the persisted generation. nullptr when the
    /// asset exists nowhere; StoreError when the stored copy is corrupt.
    std::shared_ptr<const Asset> resolve(const std::string& name)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    /// Load every backed asset into memory (cold-boot warmup); returns the
    /// number of assets now resident.
    std::size_t preload() RECOIL_EXCLUDES(disk_mu_, mu_);

    /// True while `a` is still the live asset under its name — in memory,
    /// or (when unloaded) on disk under the same generation. The
    /// single-flight stale-put gate: a wire combined from a replaced or
    /// evicted asset must not re-enter the response cache.
    bool is_current(const Asset& a) const RECOIL_EXCLUDES(mu_);

    /// Drop the in-memory asset but keep the backing copy: resolve()
    /// reloads it under the same uid, so cached responses stay valid.
    bool unload(const std::string& name) RECOIL_EXCLUDES(mu_);
    /// Remove the asset everywhere (memory and backing store).
    bool erase(const std::string& name) RECOIL_EXCLUDES(disk_mu_, mu_);

    std::vector<std::string> names() const RECOIL_EXCLUDES(mu_);
    std::size_t size() const RECOIL_EXCLUDES(mu_);

    /// Master bytes of every in-memory asset — the store's RAM footprint as
    /// the resource governor accounts it (for a demand-loaded asset this is
    /// the mmap-resident container; for a heap asset, its payload buffers).
    /// Lock-free: maintained incrementally across add/resolve/unload/erase.
    u64 resident_bytes() const noexcept {
        return resident_bytes_.load(std::memory_order_relaxed);
    }

    /// One in-memory asset as the governor sees it when ranking unload
    /// candidates: only `backed` assets can be unloaded without data loss
    /// (resolve() reloads them under the same generation), and an asset
    /// with live external references (in-flight streams pin their asset) is
    /// pointless to unload — its memory stays pinned anyway.
    struct ResidentAsset {
        std::string name;
        u64 bytes = 0;
        bool backed = false;
        /// shared_ptr holders beyond the store's own reference, sampled at
        /// snapshot time (approximate under concurrency — a racing holder
        /// may appear or vanish; the governor treats it as a heuristic).
        long external_refs = 0;
        /// Asset::last_access_ns() at snapshot time (0 = never accessed).
        u64 last_access_ns = 0;
    };
    /// Snapshot of every in-memory asset. The `backed` flags are queried
    /// from the backing store after the memory snapshot is taken.
    std::vector<ResidentAsset> residency() const RECOIL_EXCLUDES(mu_);

    /// Publish this store through `reg` as polled store_* metrics (resident
    /// bytes, asset count) and — when a backing DiskStore is or later
    /// becomes attached — the backing's disk_* metrics too. The disk
    /// callbacks hold a weak_ptr: a detached/replaced DiskStore reads as 0,
    /// never dangles.
    void bind_metrics(obs::MetricsRegistry* reg)
        RECOIL_EXCLUDES(disk_mu_, mu_);

private:
    std::shared_ptr<const Asset> insert(std::shared_ptr<Asset> a)
        RECOIL_EXCLUDES(disk_mu_, mu_);
    /// Publish (or replace) under mu_, keeping resident_bytes_ exact.
    void publish_locked(std::shared_ptr<const Asset> ptr)
        RECOIL_REQUIRES(mu_);

    mutable util::SharedMutex mu_;
    /// Serializes demand-loads and write-through ordering (taken before
    /// mu_; never the other way around — the ACQUIRED_BEFORE makes that
    /// ordering machine-checked, not a comment).
    util::Mutex disk_mu_ RECOIL_ACQUIRED_BEFORE(mu_);
    std::shared_ptr<DiskStore> disk_ RECOIL_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::shared_ptr<const Asset>> assets_
        RECOIL_GUARDED_BY(mu_);
    u64 next_uid_ RECOIL_GUARDED_BY(mu_) = 1;
    /// Lock-free mirror of the in-memory master-byte total (documented
    /// escape): maintained under mu_, read without it by the governor's
    /// pressure probe.
    std::atomic<u64> resident_bytes_{0};
    /// Registry bound via bind_metrics, remembered so a DiskStore attached
    /// later is bound too.
    obs::MetricsRegistry* metrics_ RECOIL_GUARDED_BY(disk_mu_) = nullptr;
};

}  // namespace recoil::serve
