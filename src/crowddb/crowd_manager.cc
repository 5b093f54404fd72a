#include "crowddb/crowd_manager.h"

#include "obs/window.h"
#include "util/logging.h"
#include "util/timer.h"

namespace crowdselect {

CrowdManager::CrowdManager(CrowdStore* store,
                           std::unique_ptr<CrowdSelector> selector)
    : store_(store), selector_(std::move(selector)) {
  CS_CHECK(store_ != nullptr);
  CS_CHECK(selector_ != nullptr);
  pool_.CheckInAll(store_->OnlineWorkers());
}

CrowdManager::CrowdManager(CrowdDatabase* db,
                           std::unique_ptr<CrowdSelector> selector)
    : owned_adapter_(std::make_unique<CrowdDatabaseStore>(db)),
      store_(owned_adapter_.get()),
      db_(db),
      selector_(std::move(selector)) {
  CS_CHECK(selector_ != nullptr);
  pool_.CheckInAll(store_->OnlineWorkers());
}

Status CrowdManager::InferCrowdModel() {
  // A consistent cut: against the sharded engine this materializes a
  // frozen copy, so training never sees a half-applied mutation.
  CS_ASSIGN_OR_RETURN(std::shared_ptr<const CrowdDatabase> view,
                      store_->FrozenView());
  CS_RETURN_NOT_OK(selector_->Train(*view));
  trained_ = true;
  resolved_since_training_ = 0;
  return Status::OK();
}

Result<std::vector<RankedWorker>> CrowdManager::SelectCrowd(
    const BagOfWords& task, size_t k) const {
  if (!trained_) {
    return Status::FailedPrecondition(
        "crowd model not inferred yet; call InferCrowdModel()");
  }
  // The published ids never change, so the query holds them and ranks
  // the list in place: a route copies and sorts no id.
  const std::shared_ptr<const std::vector<WorkerId>> online =
      pool_.Published();
  return selector_->SelectTopK(task, k, *online);
}

Result<std::vector<Answer>> CrowdManager::ProcessTask(
    std::string text, size_t k, TaskDispatcher* dispatcher) {
  // End-to-end blue-path latency (select + dispatch + feedback) under its
  // own SLO window, next to the selection-only serve.select endpoint.
  static obs::WindowedHistogram* const slo_window =
      obs::SloTracker::Global().GetWindow("crowd.process_task");
  ScopedTimer slo([](double elapsed_seconds) {
    slo_window->Record(elapsed_seconds * 1e6);
  });
  CS_ASSIGN_OR_RETURN(const TaskId id, store_->AddTask(std::move(text)));
  CS_ASSIGN_OR_RETURN(const TaskRecord rec, store_->GetTaskCopy(id));
  CS_ASSIGN_OR_RETURN(std::vector<RankedWorker> selected,
                      SelectCrowd(rec.bag, k));
  CS_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                      dispatcher->Dispatch(id, selected));
  if (resolved_observer_ != nullptr || live_skill_updates_) {
    // The dispatcher just recorded every score it returned, and this is
    // a fresh task id — the answers ARE the task's scored set. Reusing
    // them skips a store round-trip per task (which on the sharded
    // engine costs more than the shadow evaluation it feeds).
    std::vector<std::pair<WorkerId, double>> scored;
    scored.reserve(answers.size());
    for (const Answer& a : answers) scored.emplace_back(a.worker, a.score);
    // Shadow evaluation first: the observer must see the prediction
    // against feedback the selector has not folded in yet.
    if (resolved_observer_ != nullptr) {
      resolved_observer_->OnResolvedTask(rec.bag, selected, scored);
    }
    if (live_skill_updates_) {
      CS_RETURN_NOT_OK(selector_->ObserveResolvedTask(rec.bag, scored));
    }
  }
  ++resolved_since_training_;
  if (retrain_interval_ > 0 && resolved_since_training_ >= retrain_interval_) {
    CS_RETURN_NOT_OK(InferCrowdModel());
  }
  return answers;
}

}  // namespace crowdselect
