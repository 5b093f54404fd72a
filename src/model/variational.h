// Variational EM for TDPM (paper §5, Algorithm 2).
//
// The E-step alternates closed-form coordinate updates for the worker
// posteriors (Eqs. 10-11) and token responsibilities/bound parameters
// (Eqs. 12-13) with a convex subproblem for each task's category mean
// lambda_c (Eq. 14, solved by damped Newton where the paper uses CG) and
// a fixed-point iteration for its variances nu_c^2 (Eq. 15). The M-step
// applies the closed forms of Eqs. 16-21. See DESIGN.md for the corrected
// derivations.
#ifndef CROWDSELECT_MODEL_VARIATIONAL_H_
#define CROWDSELECT_MODEL_VARIATIONAL_H_

#include <utility>
#include <vector>

#include "crowddb/crowd_database.h"
#include "model/generative.h"
#include "model/tdpm_params.h"
#include "util/thread_pool.h"

namespace crowdselect {

/// Model-agnostic training view of the resolved tasks (T, A, S).
struct TdpmTrainData {
  /// One resolved task document.
  struct TaskDoc {
    /// Distinct (term, count) pairs, sorted by term id.
    std::vector<std::pair<TermId, uint32_t>> terms;
    /// Total token count L_j.
    double total_tokens = 0.0;
  };
  /// One scored assignment cell (a_ij = 1 with feedback s_ij).
  struct Observation {
    uint32_t worker = 0;
    uint32_t task = 0;
    double score = 0.0;
  };

  std::vector<TaskDoc> tasks;
  std::vector<Observation> observations;
  /// Observation indexes grouped by worker / by task.
  std::vector<std::vector<uint32_t>> obs_of_worker;
  std::vector<std::vector<uint32_t>> obs_of_task;
  size_t num_workers = 0;
  size_t vocab_size = 0;

  /// Extracts all *scored* assignments and their tasks from a database.
  /// `task_ids_out`, when non-null, receives the database TaskId of each
  /// extracted task (training-task index -> TaskId).
  static TdpmTrainData FromDatabase(const CrowdDatabase& db,
                                    std::vector<TaskId>* task_ids_out = nullptr);

  /// Builds training data directly from a generated world (tests).
  static TdpmTrainData FromWorld(const GeneratedWorld& world,
                                 size_t num_workers, size_t vocab_size);

  /// Basic integrity checks (index bounds, non-empty tasks).
  Status Validate() const;
};

/// Outcome of a Fit() run.
struct TdpmFitResult {
  TdpmModelParams params;
  TdpmVariationalState state;
  /// Evidence lower bound after each EM iteration.
  std::vector<double> elbo_history;
  int iterations = 0;
  bool converged = false;
};

/// Algorithm 2: iterative optimization of variational and model parameters.
class TdpmTrainer {
 public:
  explicit TdpmTrainer(TdpmOptions options);

  /// Runs variational EM to convergence (or the iteration cap).
  Result<TdpmFitResult> Fit(const TdpmTrainData& data) const;

  const TdpmOptions& options() const { return options_; }

 private:
  TdpmOptions options_;
};

namespace internal {

/// Shared aggregates for one task's (lambda_c, nu_c) subproblem. Also used
/// by the fold-in path (which simply has no score observations).
struct LambdaCProblem {
  const Matrix* sigma_c_inv = nullptr;
  const Vector* mu_c = nullptr;
  /// H = sum_i (lambda_w lambda_w^T + diag(nu_w^2)) / tau^2 over the
  /// task's scored workers; empty (0x0) when there are none.
  Matrix h;
  /// b = sum_i s_ij lambda_w / tau^2.
  Vector b;
  /// Count-weighted responsibility sums: sum_v n_v phi(v, .).
  Vector phi_weight_sum;
  /// Total tokens L_j.
  double total_tokens = 0.0;
  /// Current bound parameter eps_j.
  double eps = 1.0;
  /// Current variances nu_c^2 (held fixed while optimizing lambda).
  Vector nu_sq;

  /// Negative per-task evidence bound as a function of lambda (convex).
  double Objective(const Vector& lambda, Vector* grad) const;

  /// Closed-form Hessian of Objective at lambda:
  /// Sigma_c^{-1} + H + (L/eps) diag(exp(lambda + nu^2 / 2)).
  Matrix Hessian(const Vector& lambda) const;

  /// Damped fixed point for nu_c^2 (Eq. 15 corrected), updating `nu_sq`.
  void UpdateNuSq(const Vector& lambda, int iterations, double floor);
};

/// Outcome of one (lambda_c) solve.
struct LambdaCSolution {
  Vector x;                    ///< Final iterate.
  double value = 0.0;          ///< Objective at x.
  double gradient_norm = 0.0;  ///< Max-norm of the gradient at x.
  /// Newton iterations run, counting the last one, whose stopping test
  /// ended the solve; so at least 1, even when `init` already met it.
  int iterations = 0;
  /// Whether the gradient max-norm fell below the tolerance. False when
  /// the iteration cap ran out, the line search stalled, or the objective
  /// or gradient was not finite (x is then the last accepted iterate).
  bool converged = false;
};

/// Minimizes the (lambda_c) subproblem by damped Newton from `init`:
/// the closed-form Hessian, Armijo backtracking from the full step, and a
/// stop when the gradient max-norm is below 1e-4 or at a fixed iteration
/// cap. Shared by the batch E-step and the fold-in path, which build the
/// same LambdaCProblem (fold-in just has no score terms).
LambdaCSolution SolveLambdaC(const LambdaCProblem& problem, const Vector& init);

/// phi and eps updates (Eqs. 12-13) for one task given lambda_c and beta.
/// `log_beta` is the K x V matrix of log beta values.
void UpdatePhiAndEps(const TdpmTrainData::TaskDoc& doc, const Vector& lambda,
                     const Vector& nu_sq, const Matrix& log_beta,
                     Matrix* phi, double* eps);

}  // namespace internal

}  // namespace crowdselect

#endif  // CROWDSELECT_MODEL_VARIATIONAL_H_
