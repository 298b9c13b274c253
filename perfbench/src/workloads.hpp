#pragma once
// The three workloads and the per-layer suite their traced runs share.

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Untraced runs repeat set-up this many times and report the median, so
/// that work moved into set-up shows in `setup_s`.
inline constexpr int kSetupReps = 3;
/// Untraced runs split the measured time into this many windows; rates are
/// the median across windows.
inline constexpr int kWindows = 10;

Result run_decode_fleet(const Args& a);
Result run_hot_serve(const Args& a);
Result run_loopback_mix(const Args& a);

/// What a workload hands the per-layer suite: its assets, its server and the
/// requests it sends. Every layer is timed on these inputs from outside,
/// through each layer's public functions.
struct LayerInputs {
    std::vector<const SourceAsset*> assets;  ///< decode, core and format layers
    recoil::serve::ContentServer* server = nullptr;
    std::vector<recoil::serve::ServeRequest> replay;  ///< the workload's requests
    const SourceAsset* frame_asset = nullptr;  ///< framing, stream and socket layers
};

/// Times every layer on `in` and adds the per-layer metrics to `r`; the
/// first set-up and the workload loop have already run.
void run_layer_suite(const LayerInputs& in, Result& r);

/// Runs four untraced and four traced segments of seconds/8 each,
/// alternating, so drift over the run does not read as tracing overhead.
/// `segment(secs, traced)` returns the work rate it measured; the result is
/// the mean {untraced, traced} rate.
template <typename Fn>
std::pair<double, double> alternate_segments(double seconds, Fn&& segment) {
    double plain = 0, traced = 0;
    for (int i = 0; i < 4; ++i) {
        plain += segment(seconds / 8, false);
        traced += segment(seconds / 8, true);
    }
    return {plain / 4, traced / 4};
}

/// Adds the trace-derived per-layer metrics (span count, residual, tracing
/// overhead) and writes the Chrome trace file.
void add_trace_metrics(const std::vector<const SpanBuf*>& bufs, double untraced_rate,
                       double traced_rate, const Args& a, Result& r);

}  // namespace perfbench
