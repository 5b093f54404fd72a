#include "workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using crowdselect::CrowdManager;
using crowdselect::CrowdStoreEngine;
using crowdselect::GeneratedTask;
using crowdselect::Platform;
using crowdselect::PlatformConfig;
using crowdselect::Rng;
using crowdselect::SyntheticDataset;
using crowdselect::TdpmOptions;
using crowdselect::TdpmSelector;

namespace {

// The platform the workloads simulate is fixed; --seed picks the traffic.
constexpr uint64_t kWorldSeed = 2015;

std::string BagKey(const crowdselect::BagOfWords& bag) {
  std::string key;
  for (const auto& e : bag.entries()) {
    key += std::to_string(e.term);
    key += ':';
    key += std::to_string(e.count);
    key += ' ';
  }
  return key;
}

}  // namespace

bool LookupWorkload(const std::string& name, const std::string& size,
                    WorkloadSpec* spec) {
  const bool tiny = size == "tiny";
  if (!tiny && size != "full") return false;
  WorkloadSpec s;
  s.name = name;
  if (name == "stack_stream") {
    s.num_categories = tiny ? 6 : 30;
    s.max_em_iterations = tiny ? 2 : 10;
    s.setup_reps = tiny ? 1 : 3;
    s.ops_per_second = tiny ? 0 : 5000;
    s.min_ops = tiny ? 96 : 2000;
    s.check_pairs = tiny ? 16 : 256;
    s.probe_tasks = tiny ? 32 : 256;
  } else if (name == "large_pool") {
    s.num_workers = tiny ? 5000 : 100000;
    s.num_categories = tiny ? 4 : 10;
    s.max_em_iterations = tiny ? 2 : 10;
    s.setup_reps = tiny ? 1 : 3;
    s.ops_per_second = tiny ? 0 : 400;
    s.min_ops = tiny ? 64 : 2000;
    s.check_pairs = tiny ? 8 : 32;
    s.probe_tasks = tiny ? 16 : 256;
  } else if (name == "hot_route") {
    s.num_categories = tiny ? 6 : 30;
    s.max_em_iterations = tiny ? 2 : 10;
    s.hot = true;
    s.clients = 4;
    s.hot_set = tiny ? 16 : 128;
    s.setup_reps = tiny ? 1 : 3;
    s.ops_per_second = tiny ? 0 : 200000;
    s.min_ops = tiny ? 2000 : 10000;
    s.hot_resolves = tiny ? 64 : 4096;
    s.probe_tasks = s.hot_set;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

TdpmOptions ModelOptions(const WorkloadSpec& spec) {
  TdpmOptions options;
  options.num_categories = spec.num_categories;
  options.max_em_iterations = spec.max_em_iterations;
  options.num_threads = 1;
  return options;
}

World::World(SyntheticDataset dataset)
    : dataset_(std::move(dataset)), generator_(dataset_.world.params) {
  for (const GeneratedTask& task : dataset_.world.draw.tasks) {
    seen_bags_.insert(BagKey(task.bag));
  }
}

crowdselect::Result<std::unique_ptr<World>> World::Build(
    const WorkloadSpec& spec) {
  PlatformConfig config =
      crowdselect::DefaultPlatformConfig(Platform::kStackOverflow);
  if (spec.num_workers != 0) config.world.num_workers = spec.num_workers;
  CS_ASSIGN_OR_RETURN(
      SyntheticDataset dataset,
      crowdselect::GeneratePlatformDataset(Platform::kStackOverflow, config,
                                           kWorldSeed));
  return std::unique_ptr<World>(new World(std::move(dataset)));
}

StreamTask World::NextUnseen(Rng* rng) {
  const crowdselect::WorldConfig& config = dataset_.config.world;
  const crowdselect::Vocabulary& vocab = dataset_.db.vocabulary();
  while (true) {
    const double len =
        rng->Normal(config.mean_task_length, config.task_length_stddev);
    auto task = generator_.SampleTask(
        static_cast<size_t>(std::max(3.0, len)), rng);
    CS_CHECK(task.ok()) << task.status().ToString();
    if (!seen_bags_.insert(BagKey(task->bag)).second) continue;
    StreamTask out;
    for (crowdselect::TermId term : task->tokens) {
      if (!out.text.empty()) out.text += ' ';
      out.text += vocab.TermOf(term);
    }
    out.proportions = task->categories.Softmax();
    return out;
  }
}

void Deployment::Close() {
  dispatcher.reset();
  manager.reset();
  traced_observer.reset();
  monitor.reset();
  traced_store.reset();
  fault_store.reset();
  engine.reset();
  store = nullptr;
  tdpm = nullptr;
}

crowdselect::Status Deploy(const World& world, const WorkloadSpec& spec,
                           const std::string& dir, const DeployOptions& options,
                           Deployment* out) {
  out->dir = dir;
  {
    ScopedSpan span("crowddb.open");
    CS_ASSIGN_OR_RETURN(out->engine, CrowdStoreEngine::Open(dir));
  }
  {
    ScopedSpan span("crowddb.bulk_import");
    CS_RETURN_NOT_OK(out->engine->BulkImport(world.dataset().db));
  }
  out->store = out->engine.get();
  if (options.fault == Fault::kDropFeedback) {
    // Drops one feedback write a few tasks into the timed phase.
    out->fault_store = std::make_unique<DropFeedbackStore>(out->store, 25);
    out->store = out->fault_store.get();
  }
  if (options.traced) {
    out->traced_store = std::make_unique<TracedStore>(out->store);
    out->store = out->traced_store.get();
  }

  auto tdpm = std::make_unique<TdpmSelector>(ModelOptions(spec));
  out->tdpm = tdpm.get();
  std::unique_ptr<CrowdSelector> selector = std::move(tdpm);
  if (options.fault == Fault::kSwapRanks) {
    selector = std::make_unique<SwapRanksSelector>(std::move(selector));
  }
  if (options.traced) {
    selector = std::make_unique<TracedSelector>(std::move(selector));
  }
  out->manager = std::make_unique<CrowdManager>(out->store, std::move(selector));
  out->manager->set_live_skill_updates(true);
  out->monitor = std::make_unique<crowdselect::serve::QualityMonitor>(
      crowdselect::serve::QualityMonitorConfig{.model_id = "perfbench"});
  crowdselect::ResolvedTaskObserver* observer = out->monitor.get();
  if (options.traced) {
    out->traced_observer = std::make_unique<TracedObserver>(observer);
    observer = out->traced_observer.get();
  }
  out->manager->set_resolved_observer(observer);

  out->crowd = std::make_unique<SimulatedCrowd>();
  out->crowd->world = &world;
  out->crowd->rng = Rng(options.crowd_seed);
  SimulatedCrowd* crowd = out->crowd.get();
  auto answer = [](WorkerId, const TaskRecord&) { return std::string("ok"); };
  auto feedback = [crowd](WorkerId worker, const TaskRecord&,
                          const std::string&) {
    const double truth =
        crowd->world->true_skills()[worker].Dot(*crowd->proportions);
    return std::max(0.0,
                    std::round(truth + crowd->rng.Normal(0.0, crowd->world->tau())));
  };
  out->dispatcher = std::make_unique<crowdselect::TaskDispatcher>(
      out->store, answer, feedback);
  return out->manager->InferCrowdModel();
}

}  // namespace perfbench
