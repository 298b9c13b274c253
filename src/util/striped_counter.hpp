#pragma once
// Striped counters for hot paths that many threads bump at once. A single
// std::atomic<u64> bumped from every core turns its cache line into the
// serialization point (each fetch_add has to own the line exclusively), so
// shared totals cost more the more threads serve. A StripedCounter<N> keeps
// kStripes cache-line-padded slots of N counters each; a thread adds to its
// own slot (thread_stripe()) and readers sum the slots. Writers therefore
// share no line in the common case (more live threads than stripes share a
// slot, still correctly: the adds stay atomic RMWs), and a read costs
// kStripes loads per counter, which polled metrics can afford.
//
// Consistency: each counter's sum is exact once writers quiesce; a read that
// races writers may miss in-flight adds, exactly as a relaxed load of one
// atomic would. Sums of different counters are not a consistent snapshot.
// These are relaxed atomics by design: the documented lock-free escape for
// counters (docs/static_analysis.md).

#include <array>
#include <atomic>
#include <cstddef>

#include "util/ints.hpp"

namespace recoil::util {

inline constexpr std::size_t kCacheLine = 64;
/// Slots per striped structure. Threads are assigned round-robin, so up to
/// kStripes concurrently live threads never share a slot.
inline constexpr u32 kStripes = 16;

/// The calling thread's stripe in [0, kStripes), assigned round-robin on
/// the thread's first call and fixed for its lifetime. After the first call
/// this is a thread-local load.
inline u32 thread_stripe() noexcept {
    constexpr u32 kUnassigned = ~u32{0};
    static std::atomic<u32> next{0};
    static thread_local u32 stripe = kUnassigned;
    if (stripe == kUnassigned) [[unlikely]]
        stripe = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
}

/// N counters, striped per thread. Indices are the caller's enum.
template <std::size_t N = 1>
class StripedCounter {
public:
    /// Add `n` to counter `i` in the caller's slot. Returns the slot's value
    /// before the add: a per-thread sequence number, so a single thread
    /// adding 1 each time sees 0, 1, 2, ...
    u64 add(std::size_t i, u64 n = 1) noexcept {
        return slots_[thread_stripe()].v[i].fetch_add(
            n, std::memory_order_relaxed);
    }

    /// Sum of counter `i` over every slot.
    u64 value(std::size_t i) const noexcept {
        u64 sum = 0;
        for (const Slot& s : slots_)
            sum += s.v[i].load(std::memory_order_relaxed);
        return sum;
    }

private:
    struct alignas(kCacheLine) Slot {
        std::array<std::atomic<u64>, N> v{};
    };
    std::array<Slot, kStripes> slots_{};
};

}  // namespace recoil::util
