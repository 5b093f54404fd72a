// The scalar reference ScoreKernel: the executable specification every
// SIMD kernel is tested against bitwise. Compiled with
// -ffp-contract=off so `acc + a * b` stays an IEEE multiply followed by
// an IEEE add — auto-vectorization across *lanes* is fine (lanes are
// independent), fusing within a lane's chain is not.
#include "serve/kernels/score_kernel.h"

namespace crowdselect::serve::kernels {

namespace {

class ScalarKernel final : public ScoreKernel {
 public:
  const char* id() const override { return "scalar"; }

  void ScoreBlock(const double* panel, const double* query, size_t dims,
                  double* out) const override {
    double acc[kPanelWidth] = {0.0};
    for (size_t d = 0; d < dims; ++d) {
      const double* col = panel + d * kPanelWidth;
      const double q = query[d];
      for (size_t l = 0; l < kPanelWidth; ++l) {
        acc[l] = acc[l] + col[l] * q;
      }
    }
    for (size_t l = 0; l < kPanelWidth; ++l) out[l] = acc[l];
  }
};

}  // namespace

const ScoreKernel& ScalarScoreKernel() {
  static const ScalarKernel kernel;
  return kernel;
}

}  // namespace crowdselect::serve::kernels
