#pragma once
// Wall-clock timing helpers for the benchmark harness.

#include <chrono>

#include "util/ints.hpp"

namespace recoil {

/// Steady-clock nanoseconds since the clock's epoch: the one timestamp the
/// serve stack's recency stamps are taken from, so stamps taken in
/// different components order consistently.
inline u64 steady_now_ns() noexcept {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class Stopwatch {
public:
    Stopwatch() : start_(clock::now()) {}
    void reset() { start_ = clock::now(); }
    double seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/// Throughput in GB/s (decimal GB, as in the paper: 1 KB = 1000 bytes).
inline double gbps(double bytes, double secs) {
    return secs > 0 ? bytes / secs / 1e9 : 0.0;
}

}  // namespace recoil
