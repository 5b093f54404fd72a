#include "util/cpuid.h"

#include <cstdlib>
#include <cstring>

namespace crowdselect {

namespace {

CpuFeatures Detect() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads CPUID once per process under the hood
  // and works identically on GCC and Clang.
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.fma = __builtin_cpu_supports("fma") != 0;
#endif
  return features;
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

bool ScalarKernelForced() {
  const char* value = std::getenv(kForceScalarEnvVar);
  if (value == nullptr) return false;
  return value[0] != '\0' && std::strcmp(value, "0") != 0;
}

}  // namespace crowdselect
