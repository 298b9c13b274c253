#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "core/recoil_decoder.hpp"
#include "core/recoil_encoder.hpp"
#include "rans/static_model.hpp"
#include "rans/symbol_stats.hpp"
#include "simd/dispatch.hpp"
#include "workload/datasets.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using namespace recoil;

unsigned nproc() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string fmt(const char* f, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

Dist summarize(std::vector<double> v) {
    Dist d;
    d.n = v.size();
    if (v.empty()) return d;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    d.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n < 2) {
        d.q1 = d.q3 = d.median;
        return d;
    }
    // statistics.quantiles(method="exclusive"): m = n + 1.
    auto cut = [&](int i) {
        const long m = static_cast<long>(n) + 1;
        long j = i * m / 4;
        const long delta = i * m - j * 4;
        j = std::clamp<long>(j, 1, static_cast<long>(n) - 1);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    };
    d.q1 = cut(1);
    d.q3 = cut(3);
    return d;
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size()) return v.back();
    return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

// --- LatencyHist ------------------------------------------------------------

u32 LatencyHist::index(u64 ns) noexcept {
    if (ns < kSub) return static_cast<u32>(ns);
    const u32 e = 63u - static_cast<u32>(std::countl_zero(ns));  // >= 6
    const u32 idx = (e - 5) * kSub + static_cast<u32>((ns >> (e - 6)) & (kSub - 1));
    return std::min(idx, kBuckets - 1);
}

double LatencyHist::midpoint(u32 idx) noexcept {
    if (idx < kSub) return idx;
    const u32 e = idx / kSub + 5;
    const double lo = std::ldexp(static_cast<double>(kSub + idx % kSub), static_cast<int>(e) - 6);
    return lo + std::ldexp(0.5, static_cast<int>(e) - 6);
}

void LatencyHist::add(u64 ns) noexcept {
    ++b_[index(ns)];
    ++count_;
}

void LatencyHist::merge(const LatencyHist& o) noexcept {
    for (u32 i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    count_ += o.count_;
}

double LatencyHist::quantile_ns(double q) const noexcept {
    if (count_ == 0) return 0;
    const u64 rank = std::max<u64>(1, static_cast<u64>(std::ceil(q * count_)));
    u64 seen = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
        seen += b_[i];
        if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
}

u64 LatencyHist::beyond(double q) const noexcept {
    const u64 rank = std::max<u64>(1, static_cast<u64>(std::ceil(q * count_)));
    return count_ > rank ? count_ - rank : 0;
}

// --- tracing ----------------------------------------------------------------

TraceSummary summarize_trace(const std::vector<const SpanBuf*>& bufs) {
    TraceSummary s;
    std::map<u64, u64> child_ns;  // parent id -> summed direct-child time
    for (const SpanBuf* b : bufs) {
        s.spans += b->spans().size();
        s.dropped += b->dropped();
        for (const Span& sp : b->spans())
            if (sp.parent) child_ns[sp.parent] += sp.t1 - sp.t0;
    }
    u64 root_ns = 0, root_self_ns = 0;
    std::vector<std::pair<std::string, u64>> self;
    for (const SpanBuf* b : bufs) {
        for (const Span& sp : b->spans()) {
            const u64 d = sp.t1 - sp.t0;
            const auto it = child_ns.find(sp.id);
            const u64 kids = it == child_ns.end() ? 0 : std::min(d, it->second);
            if (sp.parent == 0) {
                root_ns += d;
                root_self_ns += d - kids;
                continue;
            }
            auto at = std::find_if(self.begin(), self.end(),
                                   [&](const auto& p) { return p.first == sp.layer; });
            if (at == self.end()) {
                self.emplace_back(sp.layer, 0);
                at = self.end() - 1;
            }
            at->second += d - kids;
        }
    }
    if (root_ns) {
        s.residual_pct = 100.0 * root_self_ns / root_ns;
        for (const auto& [layer, ns] : self)
            s.layer_self_pct.emplace_back(layer, 100.0 * ns / root_ns);
    }
    return s;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuf*>& bufs) {
    std::ofstream f(path);
    if (!f) return;
    u64 base = ~u64{0};
    for (const SpanBuf* b : bufs)
        for (const Span& sp : b->spans()) base = std::min(base, sp.t0);
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    char line[512];
    for (const SpanBuf* b : bufs) {
        for (const Span& sp : b->spans()) {
            std::snprintf(line, sizeof(line),
                          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                          "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                          first ? "" : ",\n", sp.name, sp.layer,
                          (sp.t0 - base) * 1e-3, (sp.t1 - sp.t0) * 1e-3, sp.tid,
                          static_cast<unsigned long long>(sp.id),
                          static_cast<unsigned long long>(sp.parent));
            f << line;
            first = false;
        }
    }
    f << "\n]}\n";
}

// --- host and results -------------------------------------------------------

std::vector<std::pair<std::string, std::string>> host_descriptor(const Args& a) {
    std::string clocksource = "unknown";
    std::ifstream cs("/sys/devices/system/clocksource/clocksource0/current_clocksource");
    if (cs) std::getline(cs, clocksource);
    return {
        {"nproc", std::to_string(nproc())},
        {"simd_backend", simd::backend_name(simd::pick_backend())},
        {"clocksource", clocksource},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"seed", std::to_string(a.seed)},
        {"seconds", fmt("%g", a.seconds)},
        {"trace", a.trace ? "1" : "0"},
    };
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_str(const std::string& s) {
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            o += fmt("\\u%04x", c);
            continue;
        }
        o += c;
    }
    return o + "\"";
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    return fmt("%.17g", v);
}

void write_metrics(std::ostream& o, const std::vector<Metric>& ms) {
    o << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const Metric& m = ms[i];
        o << (i ? ",\n    " : "\n    ") << json_str(m.name) << ": {\"value\": "
          << json_num(m.value) << ", \"unit\": " << json_str(m.unit);
        if (m.dist.n)
            o << ", \"median\": " << json_num(m.dist.median) << ", \"q1\": "
              << json_num(m.dist.q1) << ", \"q3\": " << json_num(m.dist.q3)
              << ", \"n\": " << m.dist.n;
        if (!m.note.empty()) o << ", \"note\": " << json_str(m.note);
        o << "}";
    }
    o << "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("  %s\n", title);
    for (const Metric& m : ms) {
        std::printf("    %-34s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
        if (m.dist.n > 1)
            std::printf("  [q1 %.6g, q3 %.6g, n=%llu]", m.dist.q1, m.dist.q3,
                        static_cast<unsigned long long>(m.dist.n));
        if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
        std::printf("\n");
    }
}

}  // namespace

void print_report(const Result& r, const Args& a) {
    std::printf("== perfbench %s (seed %llu, %s run) ==\n", r.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.trace ? "traced" : "untraced");
    std::printf("  host:");
    for (const auto& [k, v] : host_descriptor(a)) std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
    for (const auto& [k, v] : r.notes) std::printf("  %s: %s\n", k.c_str(), v.c_str());
    print_metrics("end-to-end (BENCHMARK.json names):", r.e2e);
    print_metrics("end-to-end (workload names):", r.named);
    print_metrics("per-layer:", r.layer);
    std::printf("  attempted %llu, failed %llu, refused %llu, not bit-exact %llu -> %s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.refused),
                static_cast<unsigned long long>(r.mismatched),
                r.correct() ? "correct" : "INCORRECT");
    std::fflush(stdout);
}

void write_result(const Result& r, const Args& a) {
    if (a.out.empty()) return;
    std::ofstream o(a.out);
    o << "{\n  \"workload\": " << json_str(r.workload) << ",\n  \"host\": {";
    const auto host = host_descriptor(a);
    for (std::size_t i = 0; i < host.size(); ++i)
        o << (i ? ", " : "") << json_str(host[i].first) << ": " << json_str(host[i].second);
    o << "},\n  \"notes\": {";
    for (std::size_t i = 0; i < r.notes.size(); ++i)
        o << (i ? ", " : "") << json_str(r.notes[i].first) << ": "
          << json_str(r.notes[i].second);
    o << "},\n  \"correct\": " << (r.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.errors()
      << ",\n  \"errors\": {\"failed\": " << r.failed << ", \"refused\": " << r.refused
      << ", \"not_bit_exact\": " << r.mismatched << "}"
      << ",\n  \"end_to_end\": ";
    write_metrics(o, r.e2e);
    o << ",\n  \"named\": ";
    write_metrics(o, r.named);
    o << ",\n  \"per_layer\": ";
    write_metrics(o, r.layer);
    o << "\n}\n";
}

// --- corpus -----------------------------------------------------------------

SourceAsset text_asset(std::string name, u64 size, u64 seed, u32 splits) {
    SourceAsset a;
    a.name = std::move(name);
    a.bytes = workload::gen_text(size, seed);
    const StaticModel model(histogram(a.bytes), 11);
    const auto enc = recoil_encode<Rans32, 32>(std::span<const u8>(a.bytes), model, splits);
    a.file = format::make_recoil_file(enc, model, 1);
    return a;
}

SourceAsset latent_asset(std::string name, u64 symbols, u64 seed, u32 splits) {
    constexpr u32 kProbBits = 16;
    auto ds = workload::gen_latents(name, symbols, 2.2, seed);
    const auto models = ds.build_models(kProbBits);
    const auto enc = recoil_encode<Rans32, 32>(std::span<const u16>(ds.symbols), models, splits);
    SourceAsset a;
    a.name = std::move(name);
    a.file.sym_width = 2;
    a.file.prob_bits = kProbBits;
    a.file.metadata = enc.metadata;
    a.file.units = enc.bitstream.units;
    // The container carries the generating pdfs, as a hyperprior decoder
    // would reconstruct them from side information.
    format::RecoilFile::IndexedPayload payload;
    for (double sigma : ds.bin_sigma) {
        std::vector<u64> counts(ds.alphabet);
        const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
        for (u32 s = 0; s < ds.alphabet; ++s) {
            const double r = static_cast<double>(static_cast<int>(s) - workload::kLatentOffset);
            counts[s] = 1 + static_cast<u64>(std::exp(-r * r * inv2s2) * 1e12);
        }
        payload.freqs.push_back(quantize_pdf(counts, kProbBits));
    }
    payload.ids = ds.ids;
    a.file.model = std::move(payload);
    a.words = std::move(ds.symbols);
    return a;
}

double wire_overhead_pct(const format::RecoilFile& f, u64 wire_bytes) {
    RecoilMetadata serial = f.metadata;
    serial.splits.clear();
    const double base = static_cast<double>(format::save_recoil_file(f, serial).size());
    return 100.0 * (static_cast<double>(wire_bytes) - base) / base;
}

bool wire_decodes_to(std::span<const u8> wire, const SourceAsset& a) {
    try {
        const auto g = format::load_recoil_file(wire);
        if (g.metadata.num_symbols * g.sym_width != a.raw_bytes()) return false;
        const std::span<const u16> units(g.units);
        if (g.sym_width == 1) {
            const auto model = g.build_static_model();
            std::vector<u8> out(g.metadata.num_symbols);
            recoil_decode_into<Rans32, 32, u8>(units, g.metadata, model.tables(),
                                               std::span<u8>(out), nullptr, nullptr,
                                               simd::SimdRangeFn<u8>{});
            return out == a.bytes;
        }
        const auto model = g.build_indexed_model();
        std::vector<u16> out(g.metadata.num_symbols);
        recoil_decode_into<Rans32, 32, u16>(units, g.metadata, model.tables(),
                                            std::span<u16>(out), nullptr, nullptr,
                                            simd::SimdRangeFn<u16>{});
        return out == a.words;
    } catch (const std::exception&) {
        return false;
    }
}

}  // namespace perfbench
