// Runtime kernel dispatch: pick the fastest ScoreKernel the running
// CPU supports, with two override layers — the caller's force_scalar
// flag (ServeOptions) and the CROWDSELECT_FORCE_SCALAR environment
// variable — both pinning the scalar reference. The choice is made per
// engine construction, not per query, so the environment variable is
// effectively read at engine-build time.
#include "serve/kernels/score_kernel.h"

#include <cstring>

#include "util/cpuid.h"

namespace crowdselect::serve::kernels {

const ScoreKernel& DispatchScoreKernel(bool force_scalar) {
  if (force_scalar || ScalarKernelForced()) return ScalarScoreKernel();
  if (const ScoreKernel* avx2 = Avx2ScoreKernelOrNull()) return *avx2;
  return ScalarScoreKernel();
}

uint64_t ScoreKernelOrdinal(const ScoreKernel& kernel) {
  return std::strcmp(kernel.id(), "avx2") == 0 ? 1 : 0;
}

}  // namespace crowdselect::serve::kernels
