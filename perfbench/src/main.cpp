// perfbench: the layered benchmark of the Recoil stack. Runs one workload
// for a given seed and duration, checks every output bit-exact, prints a
// report and writes one result file. See perfbench/README.md.
//
//   perfbench --workload decode_fleet|hot_serve|loopback_mix --seed N
//             --seconds S --trace 0|1 [--out result.json]
//             [--trace-out trace.json] [--workdir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload decode_fleet|hot_serve|loopback_mix --seed N "
                 "--seconds S --trace 0|1 [--out FILE] [--trace-out FILE] [--workdir DIR]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    a.workdir = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::atof(v.c_str());
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--out") a.out = v;
        else if (k == "--trace-out") a.trace_out = v;
        else if (k == "--workdir") a.workdir = v;
        else return usage();
    }
    if (argc % 2 == 0 || a.seconds <= 0) return usage();
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to report numbers from a build with assertions "
                         "enabled (build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing to report numbers from a %s build\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }
    Result r;
    try {
        if (a.workload == "decode_fleet") r = run_decode_fleet(a);
        else if (a.workload == "hot_serve") r = run_hot_serve(a);
        else if (a.workload == "loopback_mix") r = run_loopback_mix(a);
        else return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
        return 1;
    }
    print_report(r, a);
    write_result(r, a);
    return r.correct() ? 0 : 1;
}
