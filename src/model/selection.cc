#include "model/selection.h"

#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdselect {

TdpmSelector::TdpmSelector(TdpmOptions options,
                           serve::ServeOptions serve_options)
    : options_(std::move(options)),
      engine_(std::make_unique<serve::SelectionEngine>(serve_options)) {}

Status TdpmSelector::Train(const CrowdDatabase& db) {
  TdpmTrainData data = TdpmTrainData::FromDatabase(db, &trained_task_ids_);
  TdpmTrainer trainer(options_);
  CS_ASSIGN_OR_RETURN(fit_, trainer.Fit(data));
  CS_ASSIGN_OR_RETURN(TaskFolder folder,
                      TaskFolder::Create(fit_.params, options_));
  // SetFolder drops any cached fold-ins of the previous model, and the
  // snapshot version keeps growing across retrains so readers can tell
  // the publishes apart.
  engine_->SetFolder(std::move(folder));
  engine_->PublishSnapshot(
      serve::SkillMatrixSnapshot::FromFit(fit_, ++snapshot_version_));
  worker_history_.assign(data.num_workers, {});
  for (const TdpmTrainData::Observation& obs : data.observations) {
    worker_history_[obs.worker].emplace_back(obs.task, obs.score);
  }
  updater_.reset();
  worker_states_.clear();
  trained_ = true;
  return Status::OK();
}

const Vector& TdpmSelector::WorkerSkills(WorkerId worker) const {
  CS_CHECK(trained_) << "TdpmSelector not trained";
  CS_CHECK(worker < fit_.state.workers.size()) << "unknown worker " << worker;
  return fit_.state.workers[worker].lambda;
}

Result<FoldInResult> TdpmSelector::ProjectTask(const BagOfWords& task) const {
  if (!trained_) return Status::FailedPrecondition("selector not trained");
  return engine_->Project(task, &rng_);
}

Result<std::vector<RankedWorker>> TdpmSelector::SelectTopKExplained(
    const BagOfWords& task, size_t k, const std::vector<WorkerId>& candidates,
    serve::QueryStats* stats) const {
  static obs::SpanMeter meter("select.topk");
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("select.queries");
  if (!trained_) return Status::FailedPrecondition("selector not trained");
  // Eq. 1: R = argmax_{|R|=k} sum_{i in R} w_i (c_j)^T, evaluated by the
  // engine's blocked scan over the published snapshot. The engine
  // validates the candidates before any fold-in work, and the span and
  // the count start only once it admits them, so a malformed query is
  // rejected cheaply and never counted as served.
  std::optional<obs::ScopedSpan> span;
  return engine_->SelectTopK(task, k, candidates, &rng_, stats, [&span] {
    span.emplace(meter);
    queries->Increment();
  });
}

Status TdpmSelector::EnsureUpdater() {
  if (updater_.has_value()) return Status::OK();
  CS_ASSIGN_OR_RETURN(IncrementalSkillUpdater updater,
                      IncrementalSkillUpdater::Create(fit_.params));
  updater_.emplace(std::move(updater));
  worker_states_.assign(fit_.state.workers.size(), std::nullopt);
  return Status::OK();
}

void TdpmSelector::EnsureWorkerState(WorkerId worker) {
  if (worker_states_[worker].has_value()) return;
  std::vector<SkillObservation> history;
  history.reserve(worker_history_[worker].size());
  for (const auto& [task_index, score] : worker_history_[worker]) {
    history.push_back(SkillObservation{fit_.state.tasks[task_index].lambda,
                                       fit_.state.tasks[task_index].nu_sq,
                                       score});
  }
  worker_states_[worker] = updater_->StateFromHistory(history);
}

Status TdpmSelector::ObserveResolvedTask(
    const BagOfWords& task,
    const std::vector<std::pair<WorkerId, double>>& scored) {
  if (!trained_) return Status::FailedPrecondition("selector not trained");
  if (scored.empty()) return Status::OK();
  std::vector<WorkerId> workers;
  workers.reserve(scored.size());
  for (const auto& [w, score] : scored) workers.push_back(w);
  CS_RETURN_NOT_OK(
      serve::ValidateCandidates(workers, fit_.state.workers.size()));
  CS_RETURN_NOT_OK(EnsureUpdater());
  CS_ASSIGN_OR_RETURN(FoldInResult projected, engine_->Project(task, &rng_));
  SkillObservation obs;
  obs.category_mean = projected.lambda;
  obs.category_var = projected.nu_sq;
  std::vector<std::pair<WorkerId, Vector>> rows;
  rows.reserve(scored.size());
  for (const auto& [w, score] : scored) {
    EnsureWorkerState(w);
    obs.score = score;
    updater_->Observe(obs, &*worker_states_[w]);
    CS_ASSIGN_OR_RETURN(WorkerPosterior posterior,
                        updater_->Posterior(*worker_states_[w]));
    // Keep the batch-fit view coherent so WorkerSkills()/WriteBack()
    // reflect the refreshed posterior too.
    fit_.state.workers[w] = std::move(posterior);
    rows.emplace_back(w, fit_.state.workers[w].lambda);
  }
  std::shared_ptr<const serve::SkillMatrixSnapshot> current =
      engine_->snapshot();
  CS_CHECK(current != nullptr);
  engine_->PublishSnapshot(current->WithUpdatedRows(rows));
  snapshot_version_ = engine_->snapshot()->version();
  return Status::OK();
}

void TdpmSelector::PublishWorkerPosteriors(
    const std::vector<WorkerPosterior>& workers) {
  CS_CHECK(trained_) << "TdpmSelector not trained";
  CS_CHECK(workers.size() == fit_.state.workers.size())
      << "worker count mismatch";
  fit_.state.workers = workers;
  // External updates invalidate any lazily seeded incremental states.
  updater_.reset();
  worker_states_.clear();
  engine_->PublishSnapshot(
      serve::SkillMatrixSnapshot::FromPosteriors(workers,
                                                 ++snapshot_version_));
}

Status TdpmSelector::WriteBack(CrowdDatabase* db) const {
  if (!trained_) return Status::FailedPrecondition("selector not trained");
  if (db->NumWorkers() != fit_.state.workers.size()) {
    return Status::InvalidArgument("database does not match trained model");
  }
  for (WorkerId w = 0; w < fit_.state.workers.size(); ++w) {
    CS_RETURN_NOT_OK(
        db->UpdateWorkerSkills(w, fit_.state.workers[w].lambda.data()));
  }
  for (size_t j = 0; j < trained_task_ids_.size(); ++j) {
    CS_RETURN_NOT_OK(db->UpdateTaskCategories(
        trained_task_ids_[j], fit_.state.tasks[j].lambda.data()));
  }
  return Status::OK();
}

}  // namespace crowdselect
