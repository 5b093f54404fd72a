// The scoring data path behind the selection scan (paper §6, Eq. 1),
// restructured for SIMD: instead of walking row-major worker rows, the
// skill matrix is re-laid-out at snapshot-build time into *column
// panels* — groups of kPanelWidth workers whose skill values are
// interleaved per latent dimension — so a kernel scores a whole panel
// with one broadcast-multiply-accumulate per dimension, streaming both
// the panel and the query linearly (tinyBLAS-style portable tiling).
//
// Layout of one panel (W = kPanelWidth workers, K dims):
//
//   panel[d * W + l] = skills(first_worker + l, d)
//
// i.e. dimension-major, worker-interleaved. Workers past the pool size
// pad the last panel with zeros; callers must clamp emitted lanes to the
// real pool.
//
// Determinism contract: every kernel computes, for each lane l,
//
//   acc = 0; for d: acc = acc + panel[d*W + l] * query[d]
//
// as a *sequential* IEEE multiply-then-add chain in dimension order —
// never fused into FMA, never reassociated. A vector kernel evaluates
// the same chain on several lanes at once, so the scalar reference and
// every SIMD kernel produce bitwise-identical scores (the kernel TUs
// compile with -ffp-contract=off to stop the compiler re-fusing the
// chain). That makes kernel choice invisible to ranking, EXPLAIN, and
// tests: the scalar kernel IS the specification.
#ifndef CROWDSELECT_SERVE_KERNELS_SCORE_KERNEL_H_
#define CROWDSELECT_SERVE_KERNELS_SCORE_KERNEL_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace crowdselect::serve::kernels {

/// Workers per panel. 8 doubles = one cache line per dimension, two
/// 256-bit AVX2 vectors.
inline constexpr size_t kPanelWidth = 8;

/// Bumped whenever the physical panel encoding changes; folded into
/// BlockedPanels::Signature() so fold-in cache namespaces (and anything
/// else keyed on the layout) roll over with the format.
inline constexpr uint32_t kLayoutVersion = 1;

/// The blocked, SIMD-friendly snapshot representation: full-precision
/// panels built once from the row-major matrix. Immutable in serving;
/// ReencodeRow exists for the copy-on-write live-update path, which
/// mutates a fresh copy before it is published.
class BlockedPanels {
 public:
  BlockedPanels() = default;

  /// Re-encodes a row-major `num_workers x K` matrix into panels.
  static BlockedPanels Build(const Matrix& row_major);

  size_t num_workers() const { return num_workers_; }
  size_t dims() const { return dims_; }
  size_t num_panels() const { return num_panels_; }

  /// Full-precision panel p (dims() * kPanelWidth doubles).
  const double* PanelFp(size_t p) const {
    return fp_.data() + p * dims_ * kPanelWidth;
  }
  /// Overwrites worker w's lane from `row` (dims() doubles). Used by
  /// SkillMatrixSnapshot::WithUpdatedRows on its private copy.
  void ReencodeRow(size_t w, const double* row);

  /// Full-precision score of one worker, computed with the exact
  /// multiply-then-add chain the kernels use — bitwise identical to the
  /// lane a kernel would produce. This is the sparse-candidate path.
  /// Defined in blocked_layout.cc (compiled with -ffp-contract=off) so
  /// the chain is never fused.
  double LaneScore(size_t w, const double* query) const;

  /// Fingerprint of the physical layout (version, panel width, dims):
  /// mixed into cache namespaces so entries written under a different
  /// layout generation can never be served.
  uint64_t Signature() const;

 private:
  size_t num_workers_ = 0;
  size_t dims_ = 0;
  size_t num_panels_ = 0;
  std::vector<double> fp_;  ///< num_panels * dims * kPanelWidth.
};

/// A scoring kernel: scores one panel (kPanelWidth workers) against a
/// query vector. Implementations are stateless and thread-safe; the
/// engine calls ScoreBlock from every scan thread concurrently.
class ScoreKernel {
 public:
  virtual ~ScoreKernel() = default;

  /// Stable identifier surfaced in EXPLAIN, metrics, and the flight
  /// recorder: "scalar" or "avx2".
  virtual const char* id() const = 0;

  /// out[l] = full-precision score of the panel's lane l (all
  /// kPanelWidth lanes written, padded lanes included).
  virtual void ScoreBlock(const double* panel, const double* query,
                          size_t dims, double* out) const = 0;
};

/// The scalar reference kernel (always available; the specification the
/// SIMD kernels are tested against bitwise).
const ScoreKernel& ScalarScoreKernel();

/// AVX2 kernel, or nullptr when the build target or the running CPU
/// lacks AVX2.
const ScoreKernel* Avx2ScoreKernelOrNull();

/// Runtime dispatch: the fastest kernel this CPU supports, unless
/// `force_scalar` or the CROWDSELECT_FORCE_SCALAR environment variable
/// pins the scalar reference. Never returns null.
const ScoreKernel& DispatchScoreKernel(bool force_scalar = false);

/// Ordinal used where a numeric id is needed (gauges, flight events):
/// scalar = 0, avx2 = 1.
uint64_t ScoreKernelOrdinal(const ScoreKernel& kernel);

}  // namespace crowdselect::serve::kernels

#endif  // CROWDSELECT_SERVE_KERNELS_SCORE_KERNEL_H_
