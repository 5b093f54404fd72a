// The crowd-model interface: everything the serving stack needs from a
// trained model of worker ability. TDPM (model/selection.h) is the
// paper's algorithm; the task-type router (serve/router.h) composes
// per-type TDPM members behind the same contract. Both are created by
// id through CreateCrowdModel, so hosts (CLI, crowd manager, eval
// harness, benches) never name a concrete class.
//
// Contract, on top of CrowdSelector:
//   Train(db)              batch fit over resolved tasks
//   FoldInTask(bag)        project a new task into the latent space
//   ScoreCandidates(...)   rank every candidate (top-k = all)
//   SelectTopKExplained    SelectTopK + the EXPLAIN QueryStats payload
//   ObserveResolvedTask    live skill refresh (inherited; default no-op)
//   CurrentSnapshot()      the published copy-on-write skill snapshot
//
// Thread-safety contract: Train() and ObserveResolvedTask() are
// single-writer; SelectTopK / SelectTopKExplained / FoldInTask may run
// concurrently with each other and with ObserveResolvedTask(), because
// serving goes through the engine's copy-on-write snapshot publish.
#ifndef CROWDSELECT_MODEL_CROWD_MODEL_H_
#define CROWDSELECT_MODEL_CROWD_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "crowddb/selector_interface.h"
#include "model/fold_in.h"
#include "model/tdpm_params.h"
#include "serve/query_stats.h"
#include "serve/selection_engine.h"
#include "serve/skill_matrix.h"

namespace crowdselect {

/// Model-construction knobs for every model id. One flat struct (rather
/// than per-model option types at the seam) so the CLI and eval harness
/// can configure any id uniformly.
struct ModelConfig {
  /// Latent-space options (categories, EM iterations, seed, threads).
  TdpmOptions tdpm;
  /// Serving-engine knobs (cache capacity, scan parallelism).
  serve::ServeOptions serve;
  /// Clusters the training tasks into this many types, one TDPM per
  /// cluster ("router" id).
  size_t router_num_clusters = 3;
};

/// Abstract crowd model: a CrowdSelector that additionally exposes
/// fold-in, EXPLAIN-instrumented selection, and its published snapshot.
class CrowdModel : public CrowdSelector {
 public:
  /// Id this model was created under ("tdpm" or "router"). Distinct
  /// from Name(), the report label.
  virtual std::string ModelId() const = 0;

  /// Projects a new task into the model's latent space (through the
  /// serving engine's fold-in cache where the backend has one).
  virtual Result<FoldInResult> FoldInTask(const BagOfWords& task) const = 0;

  /// SelectTopK plus the EXPLAIN payload; `stats` may be null, and the
  /// returned ranking is byte-identical either way.
  virtual Result<std::vector<RankedWorker>> SelectTopKExplained(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates,
      serve::QueryStats* stats) const = 0;

  /// Scores every candidate: a full ranking, not a cut.
  Result<std::vector<RankedWorker>> ScoreCandidates(
      const BagOfWords& task, const std::vector<WorkerId>& candidates) const {
    return SelectTopKExplained(task, candidates.size(), candidates, nullptr);
  }

  /// The currently-published copy-on-write skill snapshot (null before
  /// Train()). Routers return the snapshot of their default member.
  virtual std::shared_ptr<const serve::SkillMatrixSnapshot> CurrentSnapshot()
      const = 0;

  virtual bool trained() const = 0;

  /// Default SelectTopK: the explained path without stats.
  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k,
      const std::vector<WorkerId>& candidates) const override {
    return SelectTopKExplained(task, k, candidates, nullptr);
  }
};

/// Instantiates an untrained model by id ("tdpm" or "router") and
/// counts it in `model.created`. NotFound for any other id, with the
/// known ids listed in the message.
Result<std::unique_ptr<CrowdModel>> CreateCrowdModel(const std::string& id,
                                                     const ModelConfig& config);

/// True for the ids CreateCrowdModel accepts.
bool IsCrowdModelId(const std::string& id);

}  // namespace crowdselect

#endif  // CROWDSELECT_MODEL_CROWD_MODEL_H_
