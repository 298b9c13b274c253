#pragma once
// Runtime CPU feature detection for SIMD kernel dispatch.

namespace recoil {

struct CpuFeatures {
    bool sse42 = false;  // the crc32 instruction behind format::crc32c
    bool pclmul = false;  // carry-less multiply: merges crc32c's parallel chains
    bool avx2 = false;
    bool avx512 = false;  // F + BW + DQ + VL, the set the AVX512 kernels need
};

/// Detected once per process via cpuid.
const CpuFeatures& cpu_features();

}  // namespace recoil
