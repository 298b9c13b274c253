#include "util/cpu.hpp"

#include <cpuid.h>

#include "util/thread_pool.hpp"

namespace recoil {

namespace {

CpuFeatures detect() {
    CpuFeatures f;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
        f.sse42 = (ecx & (1u << 20)) != 0;
        f.pclmul = (ecx & (1u << 1)) != 0;
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        f.avx2 = (ebx & (1u << 5)) != 0;
        const bool avx512f = (ebx & (1u << 16)) != 0;
        const bool avx512dq = (ebx & (1u << 17)) != 0;
        const bool avx512bw = (ebx & (1u << 30)) != 0;
        const bool avx512vl = (ebx & (1u << 31)) != 0;
        f.avx512 = avx512f && avx512dq && avx512bw && avx512vl;
    }
    return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
    static const CpuFeatures f = detect();
    return f;
}

ThreadPool& global_pool() {
    static ThreadPool pool;
    return pool;
}

}  // namespace recoil
