// Forwarding decorators around the interfaces the program already
// exposes (CrowdStore, CrowdSelector, ResolvedTaskObserver). The traced
// ones open a span around each call into the wrapped module; the fault
// ones break one output on purpose, so the benchmark's own tests can show
// that its checks catch it.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crowddb/selector_interface.h"
#include "crowddb/store_interface.h"
#include "spans.h"

namespace perfbench {

using crowdselect::BagOfWords;
using crowdselect::CrowdDatabase;
using crowdselect::CrowdSelector;
using crowdselect::CrowdStore;
using crowdselect::RankedWorker;
using crowdselect::Result;
using crowdselect::Status;
using crowdselect::TaskId;
using crowdselect::TaskRecord;
using crowdselect::WorkerId;
using crowdselect::WorkerRecord;

/// Forwards every CrowdStore call to `inner` (which must outlive it).
class ForwardingStore : public CrowdStore {
 public:
  explicit ForwardingStore(CrowdStore* inner) : inner_(inner) {}

  Result<WorkerId> AddWorker(std::string handle, bool online) override {
    return inner_->AddWorker(std::move(handle), online);
  }
  Result<TaskId> AddTask(std::string text) override {
    return inner_->AddTask(std::move(text));
  }
  Status Assign(WorkerId worker, TaskId task) override {
    return inner_->Assign(worker, task);
  }
  Status RecordFeedback(WorkerId worker, TaskId task, double score) override {
    return inner_->RecordFeedback(worker, task, score);
  }
  Status UpdateWorkerSkills(WorkerId worker,
                            std::vector<double> skills) override {
    return inner_->UpdateWorkerSkills(worker, std::move(skills));
  }
  Status UpdateTaskCategories(TaskId task,
                              std::vector<double> categories) override {
    return inner_->UpdateTaskCategories(task, std::move(categories));
  }
  Status SetWorkerOnline(WorkerId worker, bool online) override {
    return inner_->SetWorkerOnline(worker, online);
  }
  size_t NumWorkers() const override { return inner_->NumWorkers(); }
  size_t NumTasks() const override { return inner_->NumTasks(); }
  size_t NumAssignments() const override { return inner_->NumAssignments(); }
  size_t NumScoredAssignments() const override {
    return inner_->NumScoredAssignments();
  }
  Result<WorkerRecord> GetWorkerCopy(WorkerId worker) const override {
    return inner_->GetWorkerCopy(worker);
  }
  Result<TaskRecord> GetTaskCopy(TaskId task) const override {
    return inner_->GetTaskCopy(task);
  }
  std::vector<WorkerId> OnlineWorkers() const override {
    return inner_->OnlineWorkers();
  }
  std::vector<std::pair<WorkerId, double>> ScoredAnswersOfTask(
      TaskId task) const override {
    return inner_->ScoredAnswersOfTask(task);
  }
  Result<std::shared_ptr<const CrowdDatabase>> FrozenView() const override {
    return inner_->FrozenView();
  }

 private:
  CrowdStore* inner_;
};

/// crowddb layer: spans around the writes and reads of the resolve path.
class TracedStore : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  Result<TaskId> AddTask(std::string text) override {
    ScopedSpan span("crowddb.add_task");
    return ForwardingStore::AddTask(std::move(text));
  }
  Status Assign(WorkerId worker, TaskId task) override {
    ScopedSpan span("crowddb.assign");
    return ForwardingStore::Assign(worker, task);
  }
  Status RecordFeedback(WorkerId worker, TaskId task, double score) override {
    ScopedSpan span("crowddb.feedback");
    return ForwardingStore::RecordFeedback(worker, task, score);
  }
  Result<TaskRecord> GetTaskCopy(TaskId task) const override {
    ScopedSpan span("crowddb.get_task");
    return ForwardingStore::GetTaskCopy(task);
  }
  Result<std::shared_ptr<const CrowdDatabase>> FrozenView() const override {
    ScopedSpan span("crowddb.frozen_view");
    return ForwardingStore::FrozenView();
  }
};

/// Fault: silently drops the `drop_at`-th RecordFeedback call (0-based).
class DropFeedbackStore : public ForwardingStore {
 public:
  DropFeedbackStore(CrowdStore* inner, size_t drop_at)
      : ForwardingStore(inner), drop_at_(drop_at) {}

  Status RecordFeedback(WorkerId worker, TaskId task, double score) override {
    if (calls_++ == drop_at_) return Status::OK();
    return ForwardingStore::RecordFeedback(worker, task, score);
  }

 private:
  size_t drop_at_;
  size_t calls_ = 0;
};

/// Owns a selector and forwards every CrowdSelector call to it.
class ForwardingSelector : public CrowdSelector {
 public:
  explicit ForwardingSelector(std::unique_ptr<CrowdSelector> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  Status Train(const CrowdDatabase& db) override { return inner_->Train(db); }
  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates) const override {
    return inner_->SelectTopK(task, k, candidates);
  }
  Status ObserveResolvedTask(
      const BagOfWords& task,
      const std::vector<std::pair<WorkerId, double>>& scored) override {
    return inner_->ObserveResolvedTask(task, scored);
  }

 private:
  std::unique_ptr<CrowdSelector> inner_;
};

/// model layer: spans around training, selection and the live update.
class TracedSelector : public ForwardingSelector {
 public:
  using ForwardingSelector::ForwardingSelector;

  Status Train(const CrowdDatabase& db) override {
    ScopedSpan span("model.train");
    return ForwardingSelector::Train(db);
  }
  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates) const override {
    ScopedSpan span("model.select");
    return ForwardingSelector::SelectTopK(task, k, candidates);
  }
  Status ObserveResolvedTask(
      const BagOfWords& task,
      const std::vector<std::pair<WorkerId, double>>& scored) override {
    ScopedSpan span("model.observe");
    return ForwardingSelector::ObserveResolvedTask(task, scored);
  }
};

/// Fault: swaps the first two ranks of every selection.
class SwapRanksSelector : public ForwardingSelector {
 public:
  using ForwardingSelector::ForwardingSelector;

  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates) const override {
    Result<std::vector<RankedWorker>> ranked =
        ForwardingSelector::SelectTopK(task, k, candidates);
    if (ranked.ok() && ranked.value().size() >= 2) {
      std::swap(ranked.value()[0], ranked.value()[1]);
    }
    return ranked;
  }
};

/// serve layer: a span around the quality monitor's shadow evaluation.
class TracedObserver : public crowdselect::ResolvedTaskObserver {
 public:
  explicit TracedObserver(crowdselect::ResolvedTaskObserver* inner)
      : inner_(inner) {}

  void OnResolvedTask(
      const BagOfWords& task, const std::vector<RankedWorker>& predicted,
      const std::vector<std::pair<WorkerId, double>>& realized) override {
    ScopedSpan span("serve.quality_observe");
    inner_->OnResolvedTask(task, predicted, realized);
  }

 private:
  crowdselect::ResolvedTaskObserver* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
