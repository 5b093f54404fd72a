// Task-type query router: a CrowdModel composed of member CrowdModels,
// dispatching each query to the member whose task-type centroid is most
// similar to the incoming task (cosine over term vectors), with a
// fixed-member fallback for tasks that match no centroid. Training can
// partition the corpus by task type so each member specializes — a
// global skill matrix underfits heterogeneous task mixes, which is the
// whole reason this layer exists.
//
// Observability: every dispatch lands in `router.*` metrics, a
// kRouteDecision flight-recorder event, and (when the caller passes
// QueryStats) the EXPLAIN route section.
#ifndef CROWDSELECT_SERVE_ROUTER_H_
#define CROWDSELECT_SERVE_ROUTER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/crowd_model.h"
#include "model/task_clustering.h"

namespace crowdselect::serve {

/// Dispatch policy.
enum class RouteMode {
  kFixed,       ///< Always the fixed member (fallback target).
  kSimilarity,  ///< Best centroid by cosine similarity.
};

const char* RouteModeName(RouteMode mode);

struct RouterOptions {
  RouteMode mode = RouteMode::kSimilarity;
  /// Partition the training corpus by task type, one cluster per member
  /// (members then specialize). When false every member trains on the
  /// full database and only dispatch differs.
  bool partition_training = true;
  uint64_t seed = 42;
};

/// Where one query went and why; mirrored into QueryStats::route.
struct RouteDecision {
  size_t member = 0;
  std::string model;  ///< Member label ("tdpm:0", ...).
  double similarity = 0.0;
  double margin = 0.0;  ///< Lead over the runner-up centroid.
  bool fallback = false;
};

/// The router. Add members (in dispatch order) before Train().
class TaskTypeRouter : public CrowdModel {
 public:
  explicit TaskTypeRouter(RouterOptions options = {});

  /// Adds a member model; `label` defaults to "<model_id>:<index>".
  /// Must be called before Train().
  void AddModel(std::unique_ptr<CrowdModel> model, std::string label = "");

  size_t num_members() const { return members_.size(); }
  CrowdModel* member(size_t i) { return members_[i].model.get(); }
  const CrowdModel* member(size_t i) const { return members_[i].model.get(); }

  /// The member served when routing falls back (and the kFixed target).
  void set_fixed_member(size_t index) { fixed_member_ = index; }

  std::string Name() const override { return "Router"; }
  std::string ModelId() const override { return "router"; }

  /// Trains the members. With partition_training and >1 member, the
  /// resolved tasks are clustered into num_members() types (spherical
  /// k-means over term vectors) and member m trains on cluster m's
  /// sub-database (all workers and the full vocabulary are retained, so
  /// worker ids stay global); a cluster with no scored assignments falls
  /// back to the full database. Member centroids come from the
  /// clustering. Without partitioning, every member trains on `db` and
  /// centroids are still fitted for dispatch.
  Status Train(const CrowdDatabase& db) override;

  /// Dispatch decision for a task (no query executed).
  RouteDecision Route(const BagOfWords& task) const;

  Result<std::vector<RankedWorker>> SelectTopKExplained(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates,
      serve::QueryStats* stats) const override;

  /// Folds the task in through the routed member's fold-in.
  Result<FoldInResult> FoldInTask(const BagOfWords& task) const override;

  /// Forwards feedback to the member the task routes to.
  Status ObserveResolvedTask(
      const BagOfWords& task,
      const std::vector<std::pair<WorkerId, double>>& scored) override;

  std::shared_ptr<const SkillMatrixSnapshot> CurrentSnapshot() const override {
    return members_.empty()
               ? nullptr
               : members_[fixed_member_].model->CurrentSnapshot();
  }
  bool trained() const override { return trained_; }

  const RouterOptions& options() const { return options_; }
  /// Member centroids (unit term vectors), valid after Train().
  const TaskClustering& centroids() const { return centroids_; }

 private:
  struct Member {
    std::string label;
    std::unique_ptr<CrowdModel> model;
  };

  void FillRouteStats(const RouteDecision& decision,
                      serve::QueryStats* stats) const;
  void RecordDecision(const RouteDecision& decision) const;

  RouterOptions options_;
  std::vector<Member> members_;
  size_t fixed_member_ = 0;
  TaskClustering centroids_;  ///< centroids_.centroids[m] belongs to member m.
  bool trained_ = false;
};

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_ROUTER_H_
