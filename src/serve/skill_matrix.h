// Immutable skill-matrix snapshots for the serving path (paper §6),
// held in two physical forms built together at snapshot-publish time:
//
//  * a row-major `num_workers x K` matrix — the introspection view
//    (EXPLAIN score decomposition, RowPtr/RowCopy, model write-back);
//  * blocked column panels (serve/kernels/score_kernel.h) — the scan
//    view the ScoreKernels stream, kPanelWidth workers interleaved per
//    dimension and padded to the tile width.
//
// Snapshots are published copy-on-write through a SnapshotHandle: the
// crowd-manager / dispatcher thread builds the next version (a full
// rebuild after batch EM, or WithUpdatedRows() after incremental skill
// updates — which re-encodes the touched panel lanes) and swaps it in
// while concurrent SelectTopK readers finish on the shared_ptr they
// already acquired — readers never block writers and never observe a
// half-written matrix.
#ifndef CROWDSELECT_SERVE_SKILL_MATRIX_H_
#define CROWDSELECT_SERVE_SKILL_MATRIX_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "crowddb/records.h"
#include "linalg/matrix.h"
#include "model/tdpm_params.h"
#include "model/variational.h"
#include "serve/kernels/score_kernel.h"

namespace crowdselect::serve {

/// Immutable, contiguous view of every worker's latent skill vector.
/// Construction is the only mutation; all accessors are const and safe to
/// call from any number of threads without synchronization.
class SkillMatrixSnapshot {
 public:
  /// Flattens per-worker posteriors (batch EM state, a loaded model
  /// snapshot, or IncrementalSkillUpdater output) into a snapshot.
  static std::shared_ptr<const SkillMatrixSnapshot> FromPosteriors(
      const std::vector<WorkerPosterior>& workers, uint64_t version = 1);

  /// Convenience wrapper over a Fit() result.
  static std::shared_ptr<const SkillMatrixSnapshot> FromFit(
      const TdpmFitResult& fit, uint64_t version = 1);

  /// Adopts an already row-major `num_workers x K` matrix (synthetic
  /// benches, external model stores).
  static std::shared_ptr<const SkillMatrixSnapshot> FromMatrix(
      Matrix skills, uint64_t version = 1);

  /// Copy-on-write update: a new snapshot (version + 1) with the given
  /// rows replaced. The receiver is unchanged; concurrent readers of it
  /// are unaffected. Row vectors must have K entries and valid ids.
  std::shared_ptr<const SkillMatrixSnapshot> WithUpdatedRows(
      const std::vector<std::pair<WorkerId, Vector>>& rows) const;

  size_t num_workers() const { return skills_.rows(); }
  size_t num_categories() const { return skills_.cols(); }
  /// Monotonic publish generation, for tests and the serve.snapshot
  /// version gauge.
  uint64_t version() const { return version_; }

  /// Borrowed pointer to worker w's K skill values.
  const double* RowPtr(WorkerId w) const { return skills_.RowPtr(w); }

  /// Predictive performance w_i . c_j (Eq. 1) against a category vector.
  double Score(WorkerId w, const Vector& category) const {
    return DotSpan(skills_.RowPtr(w), category.raw(), skills_.cols());
  }

  /// Row copy (tests / diagnostics).
  Vector RowCopy(WorkerId w) const { return skills_.Row(w); }

  /// The blocked scan view, built once at construction and immutable
  /// thereafter.
  const kernels::BlockedPanels& panels() const { return panels_; }

  /// Physical-layout fingerprint (panel width, encoding version, dims);
  /// mixed into fold-in cache namespaces so entries keyed under a
  /// different layout generation can never be served.
  uint64_t layout_signature() const { return panels_.Signature(); }

 private:
  SkillMatrixSnapshot(Matrix skills, uint64_t version)
      : skills_(std::move(skills)),
        panels_(kernels::BlockedPanels::Build(skills_)),
        version_(version) {}
  /// Copy-on-write fast path: adopts already re-encoded panels instead
  /// of rebuilding them from scratch.
  SkillMatrixSnapshot(Matrix skills, kernels::BlockedPanels panels,
                      uint64_t version)
      : skills_(std::move(skills)),
        panels_(std::move(panels)),
        version_(version) {}

  Matrix skills_;
  kernels::BlockedPanels panels_;
  uint64_t version_;
};

/// Publication slot for the current snapshot. Publish() and Acquire()
/// exchange a shared_ptr under a short critical section (pointer copy
/// only); queries then scan their acquired snapshot entirely lock-free.
class SnapshotHandle {
 public:
  /// Atomically replaces the current snapshot. Also bumps the
  /// serve.snapshot.publishes counter / version gauge.
  void Publish(std::shared_ptr<const SkillMatrixSnapshot> snapshot);

  /// The snapshot as of now (nullptr before the first Publish). The
  /// returned pointer keeps its matrix alive even if a newer version is
  /// published mid-query.
  std::shared_ptr<const SkillMatrixSnapshot> Acquire() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const SkillMatrixSnapshot> current_;
};

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_SKILL_MATRIX_H_
