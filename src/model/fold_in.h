// Incremental latent-category inference (paper §6, Algorithm 3 phase 1):
// projects a *new* task into the learned latent category space without
// re-running batch inference. The subproblem is the training E-step for
// lambda_c / nu_c with the feedback-score terms removed (Eqs. 22-23).
#ifndef CROWDSELECT_MODEL_FOLD_IN_H_
#define CROWDSELECT_MODEL_FOLD_IN_H_

#include "linalg/matrix.h"
#include "model/tdpm_params.h"
#include "text/bag_of_words.h"
#include "util/rng.h"
#include "util/status.h"

namespace crowdselect {

/// Result of projecting one task.
struct FoldInResult {
  Vector lambda;  ///< Posterior mean of the latent category vector.
  Vector nu_sq;   ///< Posterior variances.
  /// Category vector to use for selection: the posterior mean, or a
  /// sample from Normal(lambda, diag(nu_sq)) when the options request
  /// sampling (Algorithm 3 line 6).
  Vector category;
  /// Cost of the lambda_c subproblem that produced this posterior: total
  /// Newton iterations across the outer alternations, and the final
  /// gradient max-norm. Both 0 for empty tasks (prior fallback). The cg_
  /// names predate the Newton solver. Travels with the posterior through
  /// the serving fold-in cache, so a cache hit can still report what its
  /// entry originally cost (see QueryStats).
  int cg_iterations = 0;
  double cg_residual = 0.0;
  /// False when any outer alternation's solve stopped without meeting the
  /// gradient tolerance; the posterior is then the last iterate, served
  /// but counted in foldin.unconverged and flagged in EXPLAIN. True for
  /// empty tasks (nothing was solved).
  bool converged = true;
};

/// Reusable fold-in engine. Construction precomputes Sigma_c^{-1} and
/// log(beta); FoldIn() is then cheap enough for per-query use, which is
/// what the paper's running-time figures measure.
class TaskFolder {
 public:
  /// `params` is copied; options control the nu_c fixed point, the
  /// variance floor and whether the selection-time category is sampled
  /// or the mean.
  static Result<TaskFolder> Create(const TdpmModelParams& params,
                                   TdpmOptions options);

  /// Projects a bag-of-words onto the latent category space. Terms beyond
  /// the training vocabulary are ignored; a task with no known terms
  /// falls back to the prior (lambda = mu_c).
  FoldInResult FoldIn(const BagOfWords& bag, Rng* rng = nullptr) const;

  /// The deterministic posterior part of FoldIn(): fills `lambda` and
  /// `nu_sq` but leaves `category` empty. This is the expensive Newton
  /// subproblem and is what the serving engine's fold-in cache stores —
  /// sampling (when enabled) must stay per-query, so it is applied
  /// afterwards by FinalizeCategory().
  FoldInResult Posterior(const BagOfWords& bag) const;

  /// Algorithm 3 line 6: sets `result->category` to a sample from
  /// Normal(lambda, diag(nu_sq)) when the options request sampling and an
  /// rng is supplied, else to the posterior mean.
  void FinalizeCategory(FoldInResult* result, Rng* rng = nullptr) const;

  size_t num_categories() const { return mu_c_.size(); }

  /// Whether FinalizeCategory samples c_j (given an rng) instead of using
  /// the posterior mean — surfaced in EXPLAIN output.
  bool samples_category() const {
    return options_.sample_category_at_selection;
  }

 private:
  TaskFolder() = default;

  Vector mu_c_;
  Matrix sigma_c_inv_;
  Vector prior_nu_sq_;  ///< diag(Sigma_c) as the no-evidence fallback.
  Matrix log_beta_;
  TdpmOptions options_;
};

}  // namespace crowdselect

#endif  // CROWDSELECT_MODEL_FOLD_IN_H_
