#include "workload/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace recoil::workload {

std::string traffic_asset_name(const TenantSpec& tenant, u32 key) {
    return tenant.name + "/k" + std::to_string(key);
}

namespace {

/// Per-tenant Zipf CDF — the same construction zipf_plan uses, factored so
/// each tenant samples its own skew from the shared arrival stream.
struct ZipfSampler {
    std::vector<double> cdf;
    double mass = 0;

    explicit ZipfSampler(u32 keys, double s) : cdf(keys) {
        for (u32 r = 0; r < keys; ++r) {
            mass += 1.0 / std::pow(static_cast<double>(r + 1), s);
            cdf[r] = mass;
        }
    }
    u32 sample(Xoshiro256& rng) const {
        const double u = rng.uniform() * mass;
        return static_cast<u32>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin()) +
               1;
    }
};

const PhaseSpec* phase_at(const std::vector<PhaseSpec>& phases, double frac) {
    for (const PhaseSpec& p : phases)
        if (frac >= p.begin_frac && frac < p.end_frac) return &p;
    return nullptr;
}

}  // namespace

std::vector<Arrival> traffic_plan(const TrafficOptions& opt) {
    RECOIL_CHECK(!opt.tenants.empty(), "traffic_plan: no tenants");
    RECOIL_CHECK(opt.offered_rps > 0, "traffic_plan: offered_rps must be > 0");

    std::vector<ZipfSampler> samplers;
    std::vector<double> tenant_cdf;
    samplers.reserve(opt.tenants.size());
    double share = 0;
    for (const TenantSpec& t : opt.tenants) {
        RECOIL_CHECK(t.keys > 0, "traffic_plan: tenant with zero keys");
        RECOIL_CHECK(t.rate_share > 0,
                     "traffic_plan: tenant rate_share must be > 0");
        samplers.emplace_back(t.keys, t.zipf_s);
        share += t.rate_share;
        tenant_cdf.push_back(share);
    }

    Xoshiro256 rng(opt.seed);
    std::vector<Arrival> plan(opt.requests);
    double clock = 0;
    for (std::size_t i = 0; i < opt.requests; ++i) {
        Arrival& a = plan[i];
        // Open-loop arrivals: the offered rate does not slow down because
        // the server is slow — that gap is exactly what the tail-latency
        // harness measures.
        const double step =
            opt.arrivals == ArrivalProcess::deterministic
                ? 1.0 / opt.offered_rps
                : -std::log(1.0 - rng.uniform()) / opt.offered_rps;
        clock += step;
        a.at_seconds = clock;
        a.index = i;

        const u32 tenant = static_cast<u32>(
            std::lower_bound(tenant_cdf.begin(), tenant_cdf.end(),
                             rng.uniform() * share) -
            tenant_cdf.begin());
        a.tenant = tenant;
        a.key = samplers[tenant].sample(rng);

        const double frac = static_cast<double>(i) /
                            static_cast<double>(opt.requests);
        if (const PhaseSpec* p = phase_at(opt.phases, frac);
            p != nullptr && rng.uniform() < p->fraction) {
            if (p->kind == PhaseSpec::Kind::flash_crowd) {
                // The crowd converges on ONE key of one tenant: a hot
                // spot no key partitioning can spread.
                a.tenant = std::min(p->tenant,
                                    static_cast<u32>(opt.tenants.size() - 1));
                a.key = 1;
            } else {
                a.scan = true;  // one-hit wonder; consumer derives the range
            }
        }
    }
    return plan;
}

}  // namespace recoil::workload
