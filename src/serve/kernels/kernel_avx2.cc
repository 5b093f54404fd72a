// AVX2 ScoreKernel: two 256-bit accumulators cover one 8-lane panel;
// each dimension is one broadcast + two multiply/add pairs. Deliberately
// _mm256_mul_pd + _mm256_add_pd, NOT _mm256_fmadd_pd: the determinism
// contract (score_kernel.h) requires the same unfused chain as the
// scalar reference, and this TU compiles with -ffp-contract=off so the
// compiler cannot re-fuse the pair behind our back.
//
// The whole TU is gated on x86-64 and compiled with -mavx2 (see
// src/CMakeLists.txt); callers reach it only through
// Avx2ScoreKernelOrNull(), which checks the *running* CPU.
#include "serve/kernels/score_kernel.h"

#include "util/cpuid.h"

#if defined(__x86_64__) && defined(__AVX2__)
#include <immintrin.h>

namespace crowdselect::serve::kernels {

namespace {

static_assert(kPanelWidth == 8,
              "AVX2 kernel is written for 8-lane panels (2 x 4 doubles)");

class Avx2Kernel final : public ScoreKernel {
 public:
  const char* id() const override { return "avx2"; }

  void ScoreBlock(const double* panel, const double* query, size_t dims,
                  double* out) const override {
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    for (size_t d = 0; d < dims; ++d) {
      const double* col = panel + d * kPanelWidth;
      const __m256d q = _mm256_set1_pd(query[d]);
      acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(_mm256_loadu_pd(col), q));
      acc_hi =
          _mm256_add_pd(acc_hi, _mm256_mul_pd(_mm256_loadu_pd(col + 4), q));
    }
    _mm256_storeu_pd(out, acc_lo);
    _mm256_storeu_pd(out + 4, acc_hi);
  }
};

}  // namespace

const ScoreKernel* Avx2ScoreKernelOrNull() {
  if (!DetectCpuFeatures().avx2) return nullptr;
  static const Avx2Kernel kernel;
  return &kernel;
}

}  // namespace crowdselect::serve::kernels

#else  // !(__x86_64__ && __AVX2__)

namespace crowdselect::serve::kernels {

const ScoreKernel* Avx2ScoreKernelOrNull() { return nullptr; }

}  // namespace crowdselect::serve::kernels

#endif
