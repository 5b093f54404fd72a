// Runtime CPU-feature detection for the SIMD score kernels
// (serve/kernels/): which vector extensions this machine actually has,
// independent of what the binary was compiled for. The serving engine
// dispatches its ScoreKernel off these bits at construction, so one
// binary runs the AVX2 kernel on machines that have it and falls back
// to the scalar reference everywhere else.
//
// `CROWDSELECT_FORCE_SCALAR` in the environment (any value other than
// "0" or empty) pins dispatch to the scalar kernel regardless of the
// hardware — the escape hatch CI uses to keep the fallback path green
// on AVX2 machines, and operators use to rule the SIMD path in or out
// when debugging a ranking discrepancy.
#ifndef CROWDSELECT_UTIL_CPUID_H_
#define CROWDSELECT_UTIL_CPUID_H_

namespace crowdselect {

/// Vector extensions available on the running CPU (not the compile
/// target). All fields false on architectures the build knows nothing
/// about.
struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 AVX2 (256-bit integer + double lanes).
  bool fma = false;   ///< x86-64 FMA3 (informational; kernels avoid fusing).
};

/// Detects once and caches; cheap to call per engine construction.
const CpuFeatures& DetectCpuFeatures();

/// True when CROWDSELECT_FORCE_SCALAR is set to anything but "" or "0".
/// Re-reads the environment on every call so tests (and long-lived
/// processes toggling the variable before building an engine) see the
/// current value, not a cached one.
bool ScalarKernelForced();

/// Name of the environment variable, for help text and error messages.
inline constexpr char kForceScalarEnvVar[] = "CROWDSELECT_FORCE_SCALAR";

}  // namespace crowdselect

#endif  // CROWDSELECT_UTIL_CPUID_H_
