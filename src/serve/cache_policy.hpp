#pragma once
// Pluggable cache decision-making for the serve subsystem, split out of
// MetadataCache so the ROADMAP's admission/eviction policy study is a
// configuration choice instead of a rewrite. Two orthogonal axes:
//
//   EvictionPolicy  — WHICH resident entry dies when the cache is over
//                     capacity. LruPolicy reproduces the historical cache
//                     bit-exactly (the seeded-Zipf exact-model regression in
//                     test_single_flight anchors this); SegmentedLruPolicy
//                     adds a probation/protected split so one burst of cold
//                     traffic cannot flush the proven-hot working set.
//   AdmissionPolicy — WHETHER a brand-new entry gets in at all. AdmitAll is
//                     the historical behavior; TinyLfuAdmission keeps a tiny
//                     frequency sketch over the key stream and rejects
//                     one-hit wonders whose byte cost exceeds their
//                     estimated reuse value (size-aware: a small stranger is
//                     cheap to gamble on, a wire-sized one is not).
//
// Policies are NOT thread-safe; MetadataCache invokes every hook under its
// own mutex. Entries are named by an opaque cache-assigned EntryId so a
// policy never sees keys or payloads — only identity, size, and recency.

#include <cstddef>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/ints.hpp"

namespace recoil::serve {

/// Opaque per-entry handle, assigned by the cache at insertion and unique
/// over the cache's lifetime (never reused, so a stale id is a hard bug).
using EntryId = u64;
inline constexpr EntryId kNoEntry = 0;

/// Victim selection + residency bookkeeping for one cache. Hook order is
/// driven by MetadataCache: on_insert for every admitted new entry,
/// on_touch for every hit (and for a put over an existing key), on_resize
/// when a refresh changes an entry's size, on_erase when the entry leaves
/// (eviction, erase_asset, shrink) — clear() drops everything at once.
class EvictionPolicy {
public:
    virtual ~EvictionPolicy() = default;
    virtual const char* name() const noexcept = 0;
    virtual void on_insert(EntryId id, u64 bytes) = 0;
    virtual void on_touch(EntryId id) = 0;
    virtual void on_resize(EntryId id, u64 bytes) = 0;
    virtual void on_erase(EntryId id) = 0;
    /// The entry the cache should evict next; kNoEntry when the policy
    /// tracks nothing. Pure selection — the cache erases and then reports
    /// the removal back through on_erase.
    virtual EntryId victim() const = 0;
    virtual void clear() = 0;
};

/// Exact reproduction of the historical MetadataCache discipline: one
/// recency list, hits (and refreshes) splice to the front, the victim is
/// the back. Selecting this policy must keep test_single_flight's seeded-Zipf
/// exact-LRU-model regression passing unmodified.
class LruPolicy final : public EvictionPolicy {
public:
    const char* name() const noexcept override { return "lru"; }
    void on_insert(EntryId id, u64 bytes) override;
    void on_touch(EntryId id) override;
    void on_resize(EntryId, u64) override {}  // recency order is size-blind
    void on_erase(EntryId id) override;
    EntryId victim() const override;
    void clear() override;

private:
    std::list<EntryId> order_;  ///< front = most recently used
    std::unordered_map<EntryId, std::list<EntryId>::iterator> pos_;
};

/// Segmented LRU: new entries enter a probation segment; a second access
/// promotes to the protected segment, which is capped at
/// `protected_fraction` of the cache's byte capacity (demotions flow back
/// to probation's MRU end). Victims come from probation first, so scan
/// traffic churns probation while the proven-hot set rides out the burst.
class SegmentedLruPolicy final : public EvictionPolicy {
public:
    SegmentedLruPolicy(u64 capacity_bytes, double protected_fraction);

    const char* name() const noexcept override { return "slru"; }
    void on_insert(EntryId id, u64 bytes) override;
    void on_touch(EntryId id) override;
    void on_resize(EntryId id, u64 bytes) override;
    void on_erase(EntryId id) override;
    EntryId victim() const override;
    void clear() override;

    u64 protected_bytes() const noexcept { return protected_bytes_; }
    u64 probation_bytes() const noexcept { return probation_bytes_; }

private:
    struct Node {
        std::list<EntryId>::iterator it;
        u64 bytes = 0;
        bool protected_seg = false;
    };
    /// Demote protected-LRU entries to probation's MRU end until the
    /// protected segment fits its byte cap again.
    void shrink_protected();

    u64 protected_cap_;
    std::list<EntryId> probation_;  ///< front = most recently used
    std::list<EntryId> protected_;
    std::unordered_map<EntryId, Node> nodes_;
    u64 protected_bytes_ = 0;
    u64 probation_bytes_ = 0;
};

/// Gate on NEW keys entering the cache. record() sees every lookup (hit or
/// miss), which is where frequency estimators learn; admit() is consulted
/// once per candidate insertion. Refreshes of already-cached keys bypass
/// the gate entirely — they paid their dues getting in.
class AdmissionPolicy {
public:
    virtual ~AdmissionPolicy() = default;
    virtual const char* name() const noexcept = 0;
    virtual void record(u64 key_hash) = 0;
    virtual bool admit(u64 key_hash, u64 bytes) = 0;
    virtual void clear() = 0;
};

/// The historical behavior: everything gets in.
class AdmitAll final : public AdmissionPolicy {
public:
    const char* name() const noexcept override { return "admit-all"; }
    void record(u64) override {}
    bool admit(u64, u64) override { return true; }
    void clear() override {}
};

/// TinyLFU-style size-aware admission: a 4-row count-min sketch of 4-bit
/// saturating counters estimates each key's access frequency over a sliding
/// sample window (all counters halve when the window fills, so dead keys
/// fade instead of squatting). A candidate whose estimated frequency shows
/// reuse (>= 2 accesses in the window — its own miss plus at least one
/// prior) is admitted; a one-hit wonder is admitted only when its byte cost
/// is under `small_floor` — the cheap-gamble threshold. Big strangers must
/// come back a second time before they may displace proven entries.
class TinyLfuAdmission final : public AdmissionPolicy {
public:
    /// `width` is counters per sketch row (rounded up to a power of two);
    /// the aging window is 8x the width, i.e. proportional to sketch size.
    TinyLfuAdmission(u64 small_floor_bytes, u32 width = 4096);

    const char* name() const noexcept override { return "tinylfu"; }
    void record(u64 key_hash) override;
    bool admit(u64 key_hash, u64 bytes) override;
    void clear() override;

    /// Sketch estimate for a key (min over rows). Saturates at 15.
    u32 estimate(u64 key_hash) const noexcept;

private:
    static constexpr u32 kRows = 4;
    static constexpr u8 kCounterMax = 15;

    u64 small_floor_;
    u32 mask_;
    u64 window_;  ///< record()s between halvings
    u64 ops_ = 0;
    std::vector<u8> rows_[kRows];
};

// ---- configuration / factories ----

enum class EvictionKind : u8 { lru = 0, slru = 1 };
enum class AdmissionKind : u8 { admit_all = 0, tinylfu = 1 };

struct CachePolicyConfig {
    EvictionKind eviction = EvictionKind::lru;
    AdmissionKind admission = AdmissionKind::admit_all;
    /// SLRU: share of the cache's byte capacity the protected segment may
    /// hold before demotions begin.
    double slru_protected_fraction = 0.8;
    /// TinyLFU: one-hit wonders at or under this byte size are admitted
    /// anyway (cheap gamble). 0 = capacity / 64.
    u64 tinylfu_small_floor = 0;
    /// TinyLFU: counters per sketch row (rounded up to a power of two).
    u32 tinylfu_width = 4096;
};

std::unique_ptr<EvictionPolicy> make_eviction_policy(
    const CachePolicyConfig& cfg, u64 capacity_bytes);
std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const CachePolicyConfig& cfg, u64 capacity_bytes);

/// Parse a policy spelling: "lru", "slru", "lru-tinylfu", "slru-tinylfu".
/// nullopt on an unknown name.
std::optional<CachePolicyConfig> parse_cache_policy(std::string_view name);
/// The canonical spelling parse_cache_policy accepts for this config.
std::string cache_policy_name(const CachePolicyConfig& cfg);

}  // namespace recoil::serve
