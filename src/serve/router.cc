#include "serve/router.h"

#include <algorithm>
#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowdselect::serve {

namespace {

struct RouterCounters {
  obs::Counter* dispatches;
  obs::Counter* fallbacks;
};

RouterCounters& Counters() {
  static RouterCounters counters{
      obs::MetricsRegistry::Global().GetCounter("router.dispatch"),
      obs::MetricsRegistry::Global().GetCounter("router.fallback")};
  return counters;
}

}  // namespace

const char* RouteModeName(RouteMode mode) {
  switch (mode) {
    case RouteMode::kFixed: return "fixed";
    case RouteMode::kSimilarity: return "similarity";
  }
  return "unknown";
}

TaskTypeRouter::TaskTypeRouter(RouterOptions options) : options_(options) {}

void TaskTypeRouter::AddModel(std::unique_ptr<CrowdModel> model,
                              std::string label) {
  CS_CHECK(!trained_) << "AddModel after Train";
  CS_CHECK(model != nullptr);
  if (label.empty()) {
    label = StringPrintf("%s:%zu", model->ModelId().c_str(), members_.size());
  }
  members_.push_back(Member{std::move(label), std::move(model)});
}

Status TaskTypeRouter::Train(const CrowdDatabase& db) {
  if (members_.empty()) {
    return Status::FailedPrecondition("router has no member models");
  }
  if (fixed_member_ >= members_.size()) {
    return Status::InvalidArgument("fixed member index out of range");
  }

  // Fit one centroid per member over the corpus term vectors; dispatch
  // reads these.
  std::vector<BagOfWords> bags;
  bags.reserve(db.NumTasks());
  for (const TaskRecord& t : db.tasks()) bags.push_back(t.bag);
  Rng rng(options_.seed);
  centroids_ =
      ClusterTasksByType(bags, db.vocabulary().size(), members_.size(), &rng);
  // Degenerate corpora can yield fewer clusters than members; the extra
  // members keep zero centroids (never win a similarity dispatch).
  while (centroids_.centroids.size() < members_.size()) {
    centroids_.centroids.push_back(Vector(db.vocabulary().size()));
  }

  if (options_.partition_training && members_.size() > 1) {
    for (size_t m = 0; m < members_.size(); ++m) {
      // Member m's view: cluster-m tasks with their assignments and
      // feedback, but every worker and the full vocabulary — worker ids
      // (and candidate validation) stay global.
      CrowdDatabase sub;
      *sub.mutable_vocabulary() = db.vocabulary();
      for (const WorkerRecord& w : db.workers()) {
        sub.AddWorker(w.handle, w.online);
      }
      std::unordered_map<TaskId, TaskId> task_map;
      for (size_t j = 0; j < db.tasks().size(); ++j) {
        if (centroids_.assignment[j] != m) continue;
        const TaskRecord& t = db.tasks()[j];
        task_map[t.id] = sub.AddTaskWithBag(t.text, t.bag);
      }
      for (const AssignmentRecord& a : db.assignments()) {
        auto it = task_map.find(a.task);
        if (it == task_map.end()) continue;
        CS_RETURN_NOT_OK(sub.Assign(a.worker, it->second));
        if (a.has_score) {
          CS_RETURN_NOT_OK(sub.RecordFeedback(a.worker, it->second, a.score));
        }
      }
      if (sub.NumScoredAssignments() == 0) {
        // An empty cluster cannot fit a model; specialize on everything
        // instead so the member still serves its dispatches sanely.
        CS_LOG(Warning) << "router member " << members_[m].label
                        << ": cluster has no scored assignments, training "
                           "on the full database";
        CS_RETURN_NOT_OK(members_[m].model->Train(db));
      } else {
        CS_RETURN_NOT_OK(members_[m].model->Train(sub));
      }
    }
  } else {
    for (Member& member : members_) {
      CS_RETURN_NOT_OK(member.model->Train(db));
    }
  }
  obs::MetricsRegistry::Global()
      .GetGauge("router.members")
      ->Set(static_cast<double>(members_.size()));
  trained_ = true;
  return Status::OK();
}

RouteDecision TaskTypeRouter::Route(const BagOfWords& task) const {
  RouteDecision d;
  if (options_.mode == RouteMode::kFixed || members_.size() == 1) {
    d.member = fixed_member_;
    d.model = members_[d.member].label;
    return d;
  }
  const std::vector<double> sims = centroids_.Similarities(task);
  size_t best = 0;
  double best_sim = -2.0, second = -2.0;
  for (size_t m = 0; m < members_.size(); ++m) {
    const double s = m < sims.size() ? sims[m] : 0.0;
    if (s > best_sim) {
      second = best_sim;
      best_sim = s;
      best = m;
    } else if (s > second) {
      second = s;
    }
  }
  if (best_sim <= 0.0) {
    // No vocabulary overlap with any centroid: fixed fallback.
    d.member = fixed_member_;
    d.fallback = true;
  } else {
    d.member = best;
    d.similarity = best_sim;
    d.margin = best_sim - std::max(second, 0.0);
  }
  d.model = members_[d.member].label;
  return d;
}

void TaskTypeRouter::RecordDecision(const RouteDecision& decision) const {
  Counters().dispatches->Increment();
  if (decision.fallback) Counters().fallbacks->Increment();
  static const uint16_t flight_name =
      obs::FlightRecorder::Global().InternName("router.route");
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kRouteDecision, flight_name,
      static_cast<uint64_t>(decision.member),
      static_cast<uint64_t>(options_.mode));
}

void TaskTypeRouter::FillRouteStats(const RouteDecision& decision,
                                    serve::QueryStats* stats) const {
  if (stats == nullptr) return;
  stats->serving_model = decision.model;
  stats->route.routed = true;
  stats->route.mode = RouteModeName(options_.mode);
  stats->route.chosen_model = decision.model;
  stats->route.similarity = decision.similarity;
  stats->route.margin = decision.margin;
  stats->route.fallback = decision.fallback;
}

Result<std::vector<RankedWorker>> TaskTypeRouter::SelectTopKExplained(
    const BagOfWords& task, size_t k, const std::vector<WorkerId>& candidates,
    serve::QueryStats* stats) const {
  if (!trained_) return Status::FailedPrecondition("router not trained");
  const RouteDecision decision = Route(task);
  RecordDecision(decision);
  CS_ASSIGN_OR_RETURN(
      std::vector<RankedWorker> ranked,
      members_[decision.member].model->SelectTopKExplained(task, k, candidates,
                                                           stats));
  FillRouteStats(decision, stats);
  return ranked;
}

Result<FoldInResult> TaskTypeRouter::FoldInTask(const BagOfWords& task) const {
  if (!trained_) return Status::FailedPrecondition("router not trained");
  const RouteDecision decision = Route(task);
  return members_[decision.member].model->FoldInTask(task);
}

Status TaskTypeRouter::ObserveResolvedTask(
    const BagOfWords& task,
    const std::vector<std::pair<WorkerId, double>>& scored) {
  if (!trained_) return Status::FailedPrecondition("router not trained");
  const RouteDecision decision = Route(task);
  RecordDecision(decision);
  return members_[decision.member].model->ObserveResolvedTask(task, scored);
}

}  // namespace crowdselect::serve
