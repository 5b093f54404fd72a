// Parameter containers for the Task-Driven Probabilistic Model (TDPM):
// the model parameters phi = {mu_w, Sigma_w, mu_c, Sigma_c, tau, beta}
// (paper §4.3) and the variational parameters phi' = {lambda_w, nu_w^2,
// lambda_c, nu_c^2, phi, eps} (paper §5.1).
#ifndef CROWDSELECT_MODEL_TDPM_PARAMS_H_
#define CROWDSELECT_MODEL_TDPM_PARAMS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace crowdselect {

/// Hyper-parameters and solver knobs for TDPM training.
struct TdpmOptions {
  /// Number of latent categories K (the paper sweeps 10..50).
  size_t num_categories = 10;
  /// Outer variational EM iterations (Algorithm 2's n_max).
  int max_em_iterations = 50;
  /// Stop when the relative ELBO improvement falls below this
  /// (Algorithm 2's epsilon).
  double em_tolerance = 1e-5;
  /// Inner fixed-point iterations for nu_c^2.
  int nu_c_iterations = 8;
  /// Constrain Sigma_w / Sigma_c to diagonal ("special way" in §4.3.1;
  /// ablation A2). Full covariance is the paper's general form.
  bool diagonal_covariance = false;
  /// When false, the feedback-score terms are removed from inference and
  /// skills are estimated from content only (ablation A1).
  bool use_feedback = true;
  /// Floor for tau^2 and the nu^2 variances, for numeric safety.
  double variance_floor = 1e-6;
  /// Floor applied to the diagonals of Sigma_w / Sigma_c after each
  /// M-step. Short documents provide little spread in lambda_c, so the
  /// empirical covariance update can enter a shrinkage spiral (Sigma -> 0
  /// collapses every posterior onto the prior mean); the floor keeps the
  /// latent space alive. Set to 0 for the paper's literal update.
  double prior_variance_floor = 0.1;
  /// Additive smoothing for the language model rows beta_k.
  double beta_smoothing = 1e-3;
  /// RNG seed for initialization.
  uint64_t seed = 42;
  /// Worker threads for the per-worker / per-task E-step (0 = hardware).
  size_t num_threads = 1;
  /// When true, Algorithm 3 samples c_j ~ Normal(lambda_c, nu_c^2) as
  /// written in the paper; when false it uses the posterior mean
  /// (deterministic, and what the evaluation uses).
  bool sample_category_at_selection = false;

  /// Validates ranges (K >= 1 etc.).
  Status Validate() const;
};

/// Model parameters phi.
struct TdpmModelParams {
  Vector mu_w;      ///< Prior mean of worker skills, size K.
  Matrix sigma_w;   ///< Prior covariance of worker skills, K x K.
  Vector mu_c;      ///< Prior mean of task categories, size K.
  Matrix sigma_c;   ///< Prior covariance of task categories, K x K.
  double tau = 1.0; ///< Feedback-score noise standard deviation.
  /// Language model: beta(k, v) = p(term v | category k); rows sum to 1.
  Matrix beta;

  size_t num_categories() const { return mu_w.size(); }
  size_t vocab_size() const { return beta.cols(); }

  /// Identity-covariance, zero-mean initialization with a uniform
  /// language model.
  static TdpmModelParams Init(size_t k, size_t vocab_size);
};

/// Per-worker variational posterior q(w_i) = Normal(lambda, diag(nu_sq)).
struct WorkerPosterior {
  Vector lambda;  ///< Posterior mean of skills.
  Vector nu_sq;   ///< Posterior (diagonal) variances.
};

/// Per-task variational posterior q(c_j) plus the token-level parameters.
struct TaskPosterior {
  Vector lambda;  ///< Posterior mean of the latent category vector.
  Vector nu_sq;   ///< Posterior variances.
  double eps = 1.0;  ///< Taylor-bound parameter eps_j (Eq. 13).
  /// phi(p, k): responsibility of category k for the p-th *distinct* term
  /// of the task (identical tokens share one row). Row p aligns with the
  /// task's BagOfWords entries order.
  Matrix phi;
};

/// Full variational state over M workers and N tasks.
struct TdpmVariationalState {
  std::vector<WorkerPosterior> workers;
  std::vector<TaskPosterior> tasks;
};

}  // namespace crowdselect

#endif  // CROWDSELECT_MODEL_TDPM_PARAMS_H_
