#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace recoil::obs {

u64 next_trace_id() noexcept {
    constexpr u64 kBlock = 1024;
    static std::atomic<u64> seq{0};
    static thread_local u64 next = 0;
    static thread_local u64 end = 0;
    if (next == end) {
        next = seq.fetch_add(kBlock, std::memory_order_relaxed) + 1;
        end = next + kBlock;
    }
    return next++;
}

void SlowRequestLog::record(TraceRecord rec) {
    util::MutexLock lk(mu_);
    rec.sequence = ++seq_;
    recorded_.fetch_add(1, std::memory_order_relaxed);
    if (rec.failed && failed_slots_ != 0) {
        failed_.push_back(rec);
        if (failed_.size() > failed_slots_) failed_.pop_front();
    }
    if (slow_slots_ == 0 || rec.failed) return;
    if (slow_.size() < slow_slots_) {
        slow_.push_back(std::move(rec));
    } else {
        auto min_it = std::min_element(
            slow_.begin(), slow_.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
                return a.total_seconds < b.total_seconds;
            });
        if (rec.total_seconds <= min_it->total_seconds) return;
        *min_it = std::move(rec);
    }
    if (slow_.size() == slow_slots_) {
        const auto floor_it = std::min_element(
            slow_.begin(), slow_.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
                return a.total_seconds < b.total_seconds;
            });
        slow_floor_ns_.store(
            static_cast<u64>(floor_it->total_seconds * 1e9),
            std::memory_order_relaxed);
    }
}

std::vector<TraceRecord> SlowRequestLog::slowest() const {
    util::MutexLock lk(mu_);
    std::vector<TraceRecord> out = slow_;
    std::sort(out.begin(), out.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                  return a.total_seconds > b.total_seconds;
              });
    return out;
}

std::vector<TraceRecord> SlowRequestLog::recent_failures() const {
    util::MutexLock lk(mu_);
    return {failed_.rbegin(), failed_.rend()};
}

namespace {

std::string fmt_u64(u64 v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void append_record(std::string& out, const TraceRecord& r) {
    out += "{\"id\": " + fmt_u64(r.id) + ", \"op\": \"" + json_escape(r.op) +
           "\", \"asset\": \"" + json_escape(r.asset) +
           "\", \"failed\": " + (r.failed ? "true" : "false") +
           ", \"code\": " + fmt_u64(r.code) + ", \"code_name\": \"" +
           json_escape(r.code_name) + "\", \"detail\": \"" +
           json_escape(r.detail) +
           "\", \"cache_hit\": " + (r.cache_hit ? "true" : "false") +
           ", \"total_seconds\": " + fmt_double(r.total_seconds) +
           ", \"wire_bytes\": " + fmt_u64(r.wire_bytes) + ", \"spans\": [";
    bool first = true;
    for (const SpanRecord& s : r.spans) {
        if (!first) out += ", ";
        first = false;
        out += "{\"name\": \"" + json_escape(s.name) +
               "\", \"start\": " + fmt_double(s.start_seconds) +
               ", \"duration\": " + fmt_double(s.duration_seconds) +
               ", \"depth\": " + fmt_u64(static_cast<u64>(s.depth)) + "}";
    }
    out += "]}";
}

}  // namespace

std::string SlowRequestLog::to_json() const {
    const auto slow = slowest();
    const auto failed = recent_failures();
    std::string out = "{\n  \"slowest\": [";
    bool first = true;
    for (const TraceRecord& r : slow) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        append_record(out, r);
    }
    out += "\n  ],\n  \"failures\": [";
    first = true;
    for (const TraceRecord& r : failed) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        append_record(out, r);
    }
    out += "\n  ]\n}";
    return out;
}

}  // namespace recoil::obs
