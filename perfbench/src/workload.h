// Workloads: the simulated platform (world), the stream of unseen tasks
// sampled from it, and one deployment of the program on a durable store
// (store + manager + selector + dispatcher + quality monitor).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "crowddb/crowd_manager.h"
#include "crowddb/dispatcher.h"
#include "crowddb/storage_engine.h"
#include "datagen/platform.h"
#include "layers.h"
#include "model/generative.h"
#include "model/selection.h"
#include "serve/quality_monitor.h"
#include "util/rng.h"

namespace perfbench {

enum class Fault { kNone, kSwapRanks, kDropFeedback };

/// Everything that differs between workloads and sizes.
struct WorkloadSpec {
  std::string name;
  size_t num_workers = 0;     ///< 0 keeps the Stack Overflow preset's.
  size_t num_categories = 0;  ///< TDPM K.
  int max_em_iterations = 0;
  bool hot = false;          ///< hot_route: route-only timed phase.
  size_t clients = 1;
  size_t hot_set = 0;        ///< hot_route: distinct hot tasks.
  size_t setup_reps = 1;     ///< Set-ups per run (setup_s is their median).
  double ops_per_second = 0;  ///< Op budget per second of --seconds.
  size_t min_ops = 0;        ///< Budget floor (p99 needs >= 1000 samples).
  size_t hot_resolves = 0;   ///< hot_route: resolves after the routes.
  size_t check_pairs = 0;    ///< Untimed, brute-force checked pairs first.
  size_t probe_tasks = 0;    ///< Tasks of the cold fold-in probe.
};

/// Named workload at the given size ("full" or "tiny"); false if unknown.
bool LookupWorkload(const std::string& name, const std::string& size,
                    WorkloadSpec* spec);

/// One sampled unseen task.
struct StreamTask {
  std::string text;
  crowdselect::Vector proportions;  ///< softmax of the true categories.
};

/// The simulated platform: the Stack Overflow preset dataset (the
/// training data) plus its generative model for new tasks. The world is
/// the same for every seed; the seed picks the traffic.
class World {
 public:
  static crowdselect::Result<std::unique_ptr<World>> Build(
      const WorkloadSpec& spec);

  const crowdselect::SyntheticDataset& dataset() const { return dataset_; }
  const std::vector<crowdselect::Vector>& true_skills() const {
    return dataset_.world.draw.worker_skills;
  }
  double tau() const { return dataset_.world.params.tau; }

  /// Samples the next task that neither the training set nor an earlier
  /// stream task has the same bag of words as.
  StreamTask NextUnseen(crowdselect::Rng* rng);

 private:
  explicit World(crowdselect::SyntheticDataset dataset);

  crowdselect::SyntheticDataset dataset_;
  crowdselect::TdpmGenerator generator_;
  std::unordered_set<std::string> seen_bags_;
};

/// The crowd the dispatcher reaches: answers are acknowledgements, and
/// feedback is the world's true score for (worker, task) plus the preset's
/// noise, rounded to a thumbs-up count.
struct SimulatedCrowd {
  const World* world = nullptr;
  const crowdselect::Vector* proportions = nullptr;  ///< Task in flight.
  crowdselect::Rng rng;
};

/// One deployment on a fresh durable store directory.
struct Deployment {
  std::string dir;
  std::unique_ptr<crowdselect::CrowdStoreEngine> engine;
  std::unique_ptr<CrowdStore> fault_store;
  std::unique_ptr<CrowdStore> traced_store;
  CrowdStore* store = nullptr;  ///< What the manager and dispatcher use.
  crowdselect::TdpmSelector* tdpm = nullptr;  ///< Owned by the manager.
  std::unique_ptr<crowdselect::serve::QualityMonitor> monitor;
  std::unique_ptr<TracedObserver> traced_observer;
  std::unique_ptr<crowdselect::CrowdManager> manager;
  std::unique_ptr<crowdselect::TaskDispatcher> dispatcher;
  std::unique_ptr<SimulatedCrowd> crowd;

  /// Closes the store (the directory stays).
  void Close();
};

struct DeployOptions {
  bool traced = false;
  Fault fault = Fault::kNone;
  uint64_t crowd_seed = 0;
};

/// Opens a durable store in `dir` (which must not exist), bulk-imports
/// the world's training data, builds the manager with live updates and a
/// quality monitor, and infers the crowd model.
crowdselect::Status Deploy(const World& world, const WorkloadSpec& spec,
                           const std::string& dir, const DeployOptions& options,
                           Deployment* out);

/// TDPM options of a workload.
crowdselect::TdpmOptions ModelOptions(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
