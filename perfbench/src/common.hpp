#pragma once
// Shared pieces of the layered benchmark: arguments, the host descriptor,
// latency histograms, repetition summaries, the span tracer and the result
// record each workload fills in.

#include <chrono>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "format/container.hpp"
#include "util/ints.hpp"

namespace perfbench {

using recoil::u16;
using recoil::u32;
using recoil::u64;
using recoil::u8;

using Clock = std::chrono::steady_clock;

inline u64 now_ns() {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now().time_since_epoch())
                                .count());
}

struct Args {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;        ///< result file (JSON)
    std::string trace_out;  ///< Chrome trace-event file (traced runs)
    std::string workdir;    ///< scratch directory for the disk store
};

unsigned nproc();

/// splitmix64: the benchmark's own deterministic mixing of seed and index.
inline u64 mix(u64 x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Median and quartiles of repeated measurements. Quartiles follow Python's
/// statistics.quantiles(n=4) (exclusive method), so the compare tool and the
/// run reports agree.
struct Dist {
    double median = 0, q1 = 0, q3 = 0;
    u64 n = 0;
};
Dist summarize(std::vector<double> v);
/// Linear-interpolated quantile q in [0,1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

/// Log-linear latency histogram over nanoseconds: 64 linear sub-buckets per
/// power of two, so a percentile is exact to within 1/64 of its value.
class LatencyHist {
public:
    void add(u64 ns) noexcept;
    void merge(const LatencyHist& o) noexcept;
    u64 count() const noexcept { return count_; }
    /// Value at quantile q in [0,1], nanoseconds (bucket midpoint).
    double quantile_ns(double q) const noexcept;
    /// Samples strictly above quantile q: the count behind a tail figure.
    u64 beyond(double q) const noexcept;

private:
    static constexpr u32 kSub = 64;
    static constexpr u32 kBuckets = 64 * kSub;
    static u32 index(u64 ns) noexcept;
    static double midpoint(u32 idx) noexcept;
    std::vector<u64> b_ = std::vector<u64>(kBuckets, 0);
    u64 count_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into each layer.
// Kept in per-thread buffers and written once, as Chrome trace-event JSON.

struct Span {
    const char* name;
    const char* layer;
    u64 t0, t1;  ///< steady-clock ns
    u64 id;
    u64 parent;  ///< 0 for an iteration (root) span
    u32 tid;
};

class SpanBuf {
public:
    SpanBuf(bool on, u32 tid, std::size_t cap = std::size_t{1} << 18)
        : on_(on), tid_(tid), cap_(cap) {}
    bool on() const noexcept { return on_; }
    u64 next_id() noexcept { return (u64{tid_} << 40) | ++seq_; }
    void push(const Span& s) {
        if (spans_.size() < cap_) spans_.push_back(s);
        else ++dropped_;
    }
    u32 tid() const noexcept { return tid_; }
    const std::vector<Span>& spans() const noexcept { return spans_; }
    u64 dropped() const noexcept { return dropped_; }

private:
    bool on_;
    u32 tid_;
    std::size_t cap_;
    u64 seq_ = 0;
    u64 dropped_ = 0;
    std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span when the buffer is on;
/// a null or off buffer costs one branch.
class SpanScope {
public:
    SpanScope(SpanBuf* buf, const char* name, const char* layer, u64 parent = 0)
        : buf_(buf && buf->on() ? buf : nullptr) {
        if (buf_) {
            s_ = Span{name, layer, now_ns(), 0, buf_->next_id(), parent, buf_->tid()};
        }
    }
    ~SpanScope() {
        if (buf_) {
            s_.t1 = now_ns();
            buf_->push(s_);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    u64 id() const noexcept { return buf_ ? s_.id : 0; }

private:
    SpanBuf* buf_;
    Span s_{};
};

struct TraceSummary {
    u64 spans = 0;
    u64 dropped = 0;
    double residual_pct = 0;  ///< root time not covered by a child span
    /// Per-layer self time as a share of root time, in first-seen order.
    std::vector<std::pair<std::string, double>> layer_self_pct;
};

TraceSummary summarize_trace(const std::vector<const SpanBuf*>& bufs);
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuf*>& bufs);

// ---------------------------------------------------------------------------
// Results.

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    Dist dist;         ///< across repetitions or windows; n=0 when single
    std::string note;  ///< e.g. "p99 over 1234567 requests, 12345 beyond"
};

struct Result {
    std::string workload;
    u64 attempted = 0;
    u64 failed = 0;      ///< calls that returned an error
    u64 refused = 0;     ///< connections or requests the server refused
    u64 mismatched = 0;  ///< outputs that were not bit-exact
    std::vector<Metric> e2e;    ///< BENCHMARK.json end_to_end names
    std::vector<Metric> named;  ///< the per-workload names of the report
    std::vector<Metric> layer;  ///< BENCHMARK.json per_layer names
    std::vector<std::pair<std::string, std::string>> notes;

    bool correct() const noexcept { return failed + refused + mismatched == 0; }
    u64 errors() const noexcept { return failed + refused + mismatched; }
    void add_e2e(std::string n, double v, std::string unit, Dist d = {},
                 std::string note = {}) {
        e2e.push_back({std::move(n), v, std::move(unit), d, std::move(note)});
    }
    void add_named(std::string n, double v, std::string unit, Dist d = {},
                   std::string note = {}) {
        named.push_back({std::move(n), v, std::move(unit), d, std::move(note)});
    }
    void add_layer(std::string n, double v, std::string unit, Dist d = {},
                   std::string note = {}) {
        layer.push_back({std::move(n), v, std::move(unit), d, std::move(note)});
    }
};

/// Host and build descriptor, printed in every report and stored with it.
std::vector<std::pair<std::string, std::string>> host_descriptor(const Args& a);

double peak_rss_mb();

void print_report(const Result& r, const Args& a);
void write_result(const Result& r, const Args& a);

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Corpus helpers shared by the workloads.

/// One encoded asset and the symbols it must decode to.
struct SourceAsset {
    std::string name;
    recoil::format::RecoilFile file;
    std::vector<u8> bytes;   ///< u8 source (static-model assets)
    std::vector<u16> words;  ///< u16 source (indexed-model assets)
    u8 width() const noexcept { return file.sym_width; }
    u64 raw_bytes() const noexcept {
        return width() == 1 ? bytes.size() : words.size() * 2;
    }
};

/// gen_text, static model at 2^11, Recoil-encoded at `splits`.
SourceAsset text_asset(std::string name, u64 size, u64 seed, u32 splits);
/// gen_latents, indexed models at 2^16, Recoil-encoded at `splits`.
SourceAsset latent_asset(std::string name, u64 symbols, u64 seed, u32 splits);

/// True when `wire` parses and decodes to the asset's symbols.
bool wire_decodes_to(std::span<const u8> wire, const SourceAsset& a);

/// Percent by which `wire_bytes` exceed the single-thread container of the
/// same bitstream (paper variation (a): no split metadata).
double wire_overhead_pct(const recoil::format::RecoilFile& f, u64 wire_bytes);

/// Paper parallelism classes: phone (2), cpu (16, the paper's Small), gpu
/// (2176, the paper's Large).
struct ClientClass {
    const char* name;
    u32 splits;
};
inline constexpr ClientClass kClasses[] = {{"phone", 2}, {"cpu", 16}, {"gpu", 2176}};
inline constexpr u32 kMaxSplits = 2176;

/// Runs `fn` repeatedly until at least `min_s` seconds and `min_reps`
/// repetitions; returns per-repetition seconds.
template <typename Fn>
std::vector<double> repeat_for(double min_s, int min_reps, Fn&& fn) {
    std::vector<double> t;
    const u64 start = now_ns();
    while (t.size() < static_cast<std::size_t>(min_reps) ||
           (now_ns() - start) * 1e-9 < min_s) {
        const u64 t0 = now_ns();
        fn();
        t.push_back((now_ns() - t0) * 1e-9);
        if (t.size() > 100000) break;
    }
    return t;
}

}  // namespace perfbench
