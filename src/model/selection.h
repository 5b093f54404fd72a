// TDPM crowd-selection (paper §6, Algorithm 3 + Eq. 1): the paper's
// proposed algorithm behind the common CrowdSelector interface, served
// through the serving engine (immutable skill snapshots, fold-in cache,
// blocked parallel scan).
#ifndef CROWDSELECT_MODEL_SELECTION_H_
#define CROWDSELECT_MODEL_SELECTION_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crowddb/selector_interface.h"
#include "model/crowd_model.h"
#include "model/fold_in.h"
#include "model/incremental_update.h"
#include "model/variational.h"
#include "serve/selection_engine.h"

namespace crowdselect {

/// Task-Driven Probabilistic Model selector.
///
/// Train() runs variational EM (Algorithm 2) over the resolved tasks in
/// the database, then hands the result to a serve::SelectionEngine: the
/// worker posterior means become an immutable SkillMatrixSnapshot and the
/// fold-in folder is attached. SelectTopK() projects the incoming task
/// into the latent category space (Algorithm 3, through the engine's
/// fold-in cache) and ranks workers by the predictive performance
/// w_i . c_j (Eq. 1) with the engine's blocked parallel top-k scan.
///
/// ObserveResolvedTask() refreshes the involved workers' posteriors with
/// the closed-form incremental update (§4.2) and publishes a new snapshot
/// version, so serving picks up resolved feedback without batch EM.
class TdpmSelector : public CrowdModel {
 public:
  explicit TdpmSelector(TdpmOptions options,
                        serve::ServeOptions serve_options = {});

  std::string Name() const override { return "TDPM"; }
  std::string ModelId() const override { return "tdpm"; }
  Status Train(const CrowdDatabase& db) override;

  /// SelectTopK with the EXPLAIN payload: identical ranking, plus the
  /// engine's request-scoped QueryStats (snapshot version, cache outcome,
  /// solve cost, stage latencies, score decomposition) in `*stats`.
  Result<std::vector<RankedWorker>> SelectTopKExplained(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates,
      serve::QueryStats* stats) const override;

  /// CrowdModel fold-in: ProjectTask under its interface name.
  Result<FoldInResult> FoldInTask(const BagOfWords& task) const override {
    return ProjectTask(task);
  }

  std::shared_ptr<const serve::SkillMatrixSnapshot> CurrentSnapshot()
      const override {
    return engine_->snapshot();
  }

  /// Incremental skill refresh (paper §4.2): folds the resolved task in,
  /// applies Eqs. 10-11 to each scored worker, and publishes an updated
  /// snapshot. Worker histories are seeded from the last batch fit.
  Status ObserveResolvedTask(
      const BagOfWords& task,
      const std::vector<std::pair<WorkerId, double>>& scored) override;

  /// Latent skills of a worker (posterior mean); prior mean for workers
  /// with no scored history. Train() must have succeeded.
  const Vector& WorkerSkills(WorkerId worker) const;

  /// Projects a task (exposed for the incremental example & benches).
  /// Goes through the engine's fold-in cache.
  Result<FoldInResult> ProjectTask(const BagOfWords& task) const;

  /// Replaces all worker posteriors (e.g. computed externally with an
  /// IncrementalSkillUpdater) and publishes a new snapshot version.
  void PublishWorkerPosteriors(const std::vector<WorkerPosterior>& workers);

  /// Fit diagnostics of the last Train() call.
  const TdpmFitResult& fit() const { return fit_; }
  bool trained() const override { return trained_; }

  /// The serving engine (never null). Exposed for benches and for hosts
  /// that want to publish snapshots or inspect the fold-in cache.
  serve::SelectionEngine* engine() { return engine_.get(); }
  const serve::SelectionEngine* engine() const { return engine_.get(); }

  /// Writes the inferred skills / categories back into `db` ("crowd
  /// update" in the paper's Fig. 1). `db` must be the trained database.
  Status WriteBack(CrowdDatabase* db) const;

 private:
  Status EnsureUpdater();
  void EnsureWorkerState(WorkerId worker);

  TdpmOptions options_;
  TdpmFitResult fit_;
  std::unique_ptr<serve::SelectionEngine> engine_;
  std::vector<TaskId> trained_task_ids_;  ///< training index -> TaskId.
  /// Per-worker scored training history: (training task index, score).
  /// Seeds the incremental updater's sufficient statistics.
  std::vector<std::vector<std::pair<uint32_t, double>>> worker_history_;
  uint64_t snapshot_version_ = 0;
  bool trained_ = false;
  mutable Rng rng_{0xC0FFEE};  ///< Only used when sampling categories.
  /// Live-update machinery, built lazily on first ObserveResolvedTask().
  std::optional<IncrementalSkillUpdater> updater_;
  std::vector<std::optional<IncrementalSkillUpdater::WorkerState>>
      worker_states_;
};

}  // namespace crowdselect

#endif  // CROWDSELECT_MODEL_SELECTION_H_
