#include "util/cpuid.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace crowdselect {
namespace {

/// Restores the prior CROWDSELECT_FORCE_SCALAR value on scope exit, so
/// tests cannot leak override state into each other (or into a test
/// runner that set it deliberately).
class ScopedForceScalarEnv {
 public:
  explicit ScopedForceScalarEnv(const char* value) {
    const char* prior = std::getenv(kForceScalarEnvVar);
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    if (value == nullptr) {
      unsetenv(kForceScalarEnvVar);
    } else {
      setenv(kForceScalarEnvVar, value, /*overwrite=*/1);
    }
  }
  ~ScopedForceScalarEnv() {
    if (had_prior_) {
      setenv(kForceScalarEnvVar, prior_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(kForceScalarEnvVar);
    }
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

TEST(CpuidTest, DetectionIsStableAcrossCalls) {
  const CpuFeatures& first = DetectCpuFeatures();
  const CpuFeatures& second = DetectCpuFeatures();
  // Cached static: same object, same answers.
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.avx2, second.avx2);
  EXPECT_EQ(first.fma, second.fma);
}

TEST(CpuidTest, FeatureCombinationsArePlausible) {
  const CpuFeatures& features = DetectCpuFeatures();
#if defined(__x86_64__) || defined(__i386__)
  // The bits describe the running CPU, not the compile target.
  EXPECT_EQ(features.avx2, __builtin_cpu_supports("avx2") != 0);
  EXPECT_EQ(features.fma, __builtin_cpu_supports("fma") != 0);
#else
  EXPECT_FALSE(features.avx2);
  EXPECT_FALSE(features.fma);
#endif
}

TEST(CpuidTest, ForceScalarUnsetMeansNotForced) {
  ScopedForceScalarEnv env(nullptr);
  EXPECT_FALSE(ScalarKernelForced());
}

TEST(CpuidTest, ForceScalarHonorsTruthyValues) {
  {
    ScopedForceScalarEnv env("1");
    EXPECT_TRUE(ScalarKernelForced());
  }
  {
    ScopedForceScalarEnv env("yes");
    EXPECT_TRUE(ScalarKernelForced());
  }
}

TEST(CpuidTest, ForceScalarTreatsEmptyAndZeroAsOff) {
  {
    ScopedForceScalarEnv env("");
    EXPECT_FALSE(ScalarKernelForced());
  }
  {
    ScopedForceScalarEnv env("0");
    EXPECT_FALSE(ScalarKernelForced());
  }
}

TEST(CpuidTest, ForceScalarIsReadPerCall) {
  // Unlike feature detection, the override must track the live
  // environment: a long-lived process can flip it between engine builds.
  ScopedForceScalarEnv env("1");
  EXPECT_TRUE(ScalarKernelForced());
  setenv(kForceScalarEnvVar, "0", /*overwrite=*/1);
  EXPECT_FALSE(ScalarKernelForced());
}

}  // namespace
}  // namespace crowdselect
