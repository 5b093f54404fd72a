// Task-type discovery for the task-type router (serve/router.h):
// spherical k-means over normalized term-frequency vectors. Cosine
// similarity is the natural metric for bag-of-words tasks (it is what
// the paper's VSM baseline ranks with), and keeping the centroids in the
// vocabulary space lets the router score an incoming task against each
// model's centroid with one sparse pass.
#ifndef CROWDSELECT_MODEL_TASK_CLUSTERING_H_
#define CROWDSELECT_MODEL_TASK_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "linalg/vector.h"
#include "text/bag_of_words.h"
#include "util/rng.h"

namespace crowdselect {

/// A fitted task-type clustering: unit-L2 centroids in vocabulary space
/// plus the training assignment.
struct TaskClustering {
  /// Unit-norm centroids, each of dimension `vocab_size`.
  std::vector<Vector> centroids;
  /// Cluster index per input task, parallel to the `bags` argument.
  std::vector<uint32_t> assignment;

  size_t num_clusters() const { return centroids.size(); }

  /// Cosine similarity of `bag` against every centroid (centroids are
  /// unit-norm, so this is one sparse dot per centroid divided by the
  /// bag norm). All zeros for an empty bag.
  std::vector<double> Similarities(const BagOfWords& bag) const;

  /// Argmax of Similarities(); `similarity`/`margin` (lead over the
  /// runner-up) are optional out-params. Returns 0 with similarity 0 for
  /// an empty bag or a bag with no vocabulary overlap.
  uint32_t Assign(const BagOfWords& bag, double* similarity = nullptr,
                  double* margin = nullptr) const;
};

/// Spherical k-means over `bags` (terms must be < vocab_size).
/// Deterministic given `rng`'s state: seeds with k-means++-style
/// farthest-point sampling, iterates assign/recenter to convergence or
/// `max_iterations`, and reseeds empty clusters from the worst-fit task.
/// `num_clusters` is clamped to the number of non-empty bags (minimum 1).
TaskClustering ClusterTasksByType(const std::vector<BagOfWords>& bags,
                                  size_t vocab_size, size_t num_clusters,
                                  Rng* rng, size_t max_iterations = 25);

}  // namespace crowdselect

#endif  // CROWDSELECT_MODEL_TASK_CLUSTERING_H_
