#include "serve/kernels/score_kernel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "linalg/matrix.h"
#include "util/cpuid.h"
#include "util/rng.h"

namespace crowdselect::serve::kernels {
namespace {

Matrix RandomMatrix(size_t n, size_t k, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, k);
  for (size_t w = 0; w < n; ++w) {
    for (size_t d = 0; d < k; ++d) m(w, d) = rng.Normal();
  }
  return m;
}

std::vector<double> RandomQuery(size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(k);
  for (double& v : q) v = rng.Normal();
  return q;
}

// Bitwise comparison: the determinism contract promises identical bits,
// not just identical-to-epsilon values.
void ExpectBitwiseEqual(const double* a, const double* b, size_t n,
                        const char* what) {
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << " lane " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(BlockedPanelsTest, BuildMatchesRowMajor) {
  const Matrix m = RandomMatrix(19, 5, 11);
  const BlockedPanels panels = BlockedPanels::Build(m);
  EXPECT_EQ(panels.num_workers(), 19u);
  EXPECT_EQ(panels.dims(), 5u);
  EXPECT_EQ(panels.num_panels(), 3u);  // ceil(19 / 8)
  for (size_t w = 0; w < 19; ++w) {
    const double* panel = panels.PanelFp(w / kPanelWidth);
    const size_t lane = w % kPanelWidth;
    for (size_t d = 0; d < 5; ++d) {
      EXPECT_EQ(panel[d * kPanelWidth + lane], m(w, d))
          << "worker " << w << " dim " << d;
    }
  }
}

TEST(BlockedPanelsTest, LastPanelIsZeroPadded) {
  const Matrix m = RandomMatrix(9, 4, 3);
  const BlockedPanels panels = BlockedPanels::Build(m);
  ASSERT_EQ(panels.num_panels(), 2u);
  const double* fp = panels.PanelFp(1);
  for (size_t d = 0; d < 4; ++d) {
    for (size_t lane = 1; lane < kPanelWidth; ++lane) {  // worker 9..15 pad
      EXPECT_EQ(fp[d * kPanelWidth + lane], 0.0);
    }
  }
}

TEST(BlockedPanelsTest, ZeroRowScoresExactlyZero) {
  Matrix m(9, 3);
  for (size_t d = 0; d < 3; ++d) m(4, d) = 0.0;
  m(0, 0) = 1.0;
  const BlockedPanels panels = BlockedPanels::Build(m);
  std::vector<double> q = RandomQuery(3, 5);
  EXPECT_EQ(panels.LaneScore(4, q.data()), 0.0);
}

TEST(BlockedPanelsTest, ReencodeRowMatchesFreshBuild) {
  Matrix m = RandomMatrix(21, 6, 31);
  BlockedPanels panels = BlockedPanels::Build(m);
  // Update three rows (first, middle-of-panel, last) in place.
  const std::vector<double> replacement = RandomQuery(6, 77);
  for (size_t w : {size_t{0}, size_t{12}, size_t{20}}) {
    for (size_t d = 0; d < 6; ++d) m(w, d) = replacement[d] + double(w);
    panels.ReencodeRow(w, m.RowPtr(w));
  }
  const BlockedPanels fresh = BlockedPanels::Build(m);
  ASSERT_EQ(panels.num_panels(), fresh.num_panels());
  const size_t panel_doubles = panels.dims() * kPanelWidth;
  for (size_t p = 0; p < panels.num_panels(); ++p) {
    EXPECT_EQ(std::memcmp(panels.PanelFp(p), fresh.PanelFp(p),
                          panel_doubles * sizeof(double)),
              0)
        << "fp panel " << p;
  }
}

TEST(BlockedPanelsTest, SignatureTracksLayoutNotContents) {
  const BlockedPanels a = BlockedPanels::Build(RandomMatrix(10, 4, 1));
  const BlockedPanels b = BlockedPanels::Build(RandomMatrix(30, 4, 2));
  const BlockedPanels c = BlockedPanels::Build(RandomMatrix(10, 5, 1));
  // Same physical layout (dims) regardless of contents / worker count...
  EXPECT_EQ(a.Signature(), b.Signature());
  // ...different dimensionality is a different layout generation.
  EXPECT_NE(a.Signature(), c.Signature());
}

TEST(ScoreKernelTest, ScalarMatchesLaneScoreBitwise) {
  for (size_t dims : {1u, 2u, 3u, 7u, 8u, 16u, 17u}) {
    const Matrix m = RandomMatrix(13, dims, 100 + dims);
    const BlockedPanels panels = BlockedPanels::Build(m);
    const std::vector<double> q = RandomQuery(dims, 200 + dims);
    const ScoreKernel& scalar = ScalarScoreKernel();
    for (size_t p = 0; p < panels.num_panels(); ++p) {
      double out[kPanelWidth];
      scalar.ScoreBlock(panels.PanelFp(p), q.data(), dims, out);
      for (size_t l = 0; l < kPanelWidth; ++l) {
        const size_t w = p * kPanelWidth + l;
        if (w >= panels.num_workers()) continue;
        const double lane_fp = panels.LaneScore(w, q.data());
        ExpectBitwiseEqual(&out[l], &lane_fp, 1, "fp");
      }
    }
  }
}

// The core SIMD acceptance test: whatever vector kernel this machine
// has must reproduce the scalar reference bit for bit, across
// dimensionalities that exercise every unroll remainder.
TEST(ScoreKernelTest, VectorKernelsMatchScalarBitwise) {
  const ScoreKernel* avx2 = Avx2ScoreKernelOrNull();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "no vector kernel on this machine";
  }
  const ScoreKernel& scalar = ScalarScoreKernel();
  for (size_t dims = 1; dims <= 17; ++dims) {
    const Matrix m = RandomMatrix(64, dims, 1000 + dims);
    const BlockedPanels panels = BlockedPanels::Build(m);
    const std::vector<double> q = RandomQuery(dims, 2000 + dims);
    for (size_t p = 0; p < panels.num_panels(); ++p) {
      double ref[kPanelWidth];
      double got[kPanelWidth];
      scalar.ScoreBlock(panels.PanelFp(p), q.data(), dims, ref);
      avx2->ScoreBlock(panels.PanelFp(p), q.data(), dims, got);
      ExpectBitwiseEqual(got, ref, kPanelWidth, avx2->id());
    }
  }
}

TEST(ScoreKernelTest, DispatchHonorsForceScalarFlag) {
  const ScoreKernel& forced = DispatchScoreKernel(/*force_scalar=*/true);
  EXPECT_STREQ(forced.id(), "scalar");
  EXPECT_EQ(ScoreKernelOrdinal(forced), 0u);
}

TEST(ScoreKernelTest, DispatchHonorsForceScalarEnv) {
  const char* prior = std::getenv(kForceScalarEnvVar);
  setenv(kForceScalarEnvVar, "1", /*overwrite=*/1);
  EXPECT_STREQ(DispatchScoreKernel().id(), "scalar");
  if (prior != nullptr) {
    setenv(kForceScalarEnvVar, prior, /*overwrite=*/1);
  } else {
    unsetenv(kForceScalarEnvVar);
  }
}

TEST(ScoreKernelTest, DispatchPicksVectorKernelWhenAvailable) {
  const char* prior = std::getenv(kForceScalarEnvVar);
  unsetenv(kForceScalarEnvVar);
  const ScoreKernel& kernel = DispatchScoreKernel();
  if (DetectCpuFeatures().avx2) {
    EXPECT_STREQ(kernel.id(), "avx2");
    EXPECT_EQ(ScoreKernelOrdinal(kernel), 1u);
  } else {
    EXPECT_STREQ(kernel.id(), "scalar");
  }
  if (prior != nullptr) setenv(kForceScalarEnvVar, prior, /*overwrite=*/1);
}

}  // namespace
}  // namespace crowdselect::serve::kernels
