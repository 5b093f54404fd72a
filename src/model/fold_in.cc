#include "model/fold_in.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "model/variational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdselect {

Result<TaskFolder> TaskFolder::Create(const TdpmModelParams& params,
                                      TdpmOptions options) {
  CS_RETURN_NOT_OK(options.Validate());
  if (params.num_categories() != options.num_categories) {
    return Status::InvalidArgument("options.num_categories != model K");
  }
  TaskFolder folder;
  folder.options_ = std::move(options);
  folder.mu_c_ = params.mu_c;
  CS_ASSIGN_OR_RETURN(Cholesky chol,
                      Cholesky::FactorizeWithJitter(params.sigma_c));
  folder.sigma_c_inv_ = chol.Inverse();
  folder.prior_nu_sq_ = Vector(params.num_categories());
  for (size_t i = 0; i < params.num_categories(); ++i) {
    folder.prior_nu_sq_[i] = params.sigma_c(i, i);
  }
  folder.log_beta_ = Matrix(params.beta.rows(), params.beta.cols());
  for (size_t i = 0; i < params.beta.rows(); ++i) {
    for (size_t v = 0; v < params.beta.cols(); ++v) {
      folder.log_beta_(i, v) = std::log(std::max(params.beta(i, v), 1e-300));
    }
  }
  return folder;
}

FoldInResult TaskFolder::FoldIn(const BagOfWords& bag, Rng* rng) const {
  FoldInResult result = Posterior(bag);
  FinalizeCategory(&result, rng);
  return result;
}

FoldInResult TaskFolder::Posterior(const BagOfWords& bag) const {
  // Selection hot path: resolve instrument names once per process.
  static obs::SpanMeter meter("foldin.project");
  static obs::Counter* cg_iterations =
      obs::MetricsRegistry::Global().GetCounter("foldin.cg.iterations");
  static obs::Counter* empty_tasks =
      obs::MetricsRegistry::Global().GetCounter("foldin.empty_tasks");
  static obs::Counter* unconverged =
      obs::MetricsRegistry::Global().GetCounter("foldin.unconverged");
  obs::ScopedSpan span(meter);

  const size_t k = num_categories();
  FoldInResult result;

  // Build the document restricted to the known vocabulary.
  TdpmTrainData::TaskDoc doc;
  for (const auto& e : bag.entries()) {
    if (e.term < log_beta_.cols()) {
      doc.terms.emplace_back(e.term, e.count);
      doc.total_tokens += e.count;
    }
  }

  if (doc.terms.empty()) {
    empty_tasks->Increment();
    result.lambda = mu_c_;
    result.nu_sq = prior_nu_sq_;
  } else {
    internal::LambdaCProblem problem;
    problem.sigma_c_inv = &sigma_c_inv_;
    problem.mu_c = &mu_c_;
    problem.total_tokens = doc.total_tokens;
    problem.nu_sq = Vector(k, 1.0);

    Vector lambda = mu_c_;
    Matrix phi(doc.terms.size(), k, 1.0 / static_cast<double>(k));
    double eps = static_cast<double>(k);

    // Algorithm 3 lines 2-5: alternate (phi, eps) and (lambda, nu).
    for (int it = 0; it < 3; ++it) {
      internal::UpdatePhiAndEps(doc, lambda, problem.nu_sq, log_beta_, &phi,
                                &eps);
      problem.eps = eps;
      problem.phi_weight_sum = Vector(k);
      for (size_t p = 0; p < doc.terms.size(); ++p) {
        const double n = doc.terms[p].second;
        for (size_t d = 0; d < k; ++d) {
          problem.phi_weight_sum[d] += n * phi(p, d);
        }
      }
      internal::LambdaCSolution solved =
          internal::SolveLambdaC(problem, lambda);
      cg_iterations->Increment(static_cast<uint64_t>(solved.iterations));
      result.cg_iterations += solved.iterations;
      result.cg_residual = solved.gradient_norm;
      result.converged = result.converged && solved.converged;
      lambda = std::move(solved.x);
      problem.UpdateNuSq(lambda, options_.nu_c_iterations,
                         options_.variance_floor);
    }
    result.lambda = std::move(lambda);
    result.nu_sq = problem.nu_sq;
    if (!result.converged) unconverged->Increment();
  }
  return result;
}

void TaskFolder::FinalizeCategory(FoldInResult* result, Rng* rng) const {
  // Algorithm 3 line 6: c_j ~ Normal(lambda, diag(nu^2)), or the mean.
  if (options_.sample_category_at_selection && rng != nullptr) {
    const size_t k = result->lambda.size();
    result->category = Vector(k);
    for (size_t i = 0; i < k; ++i) {
      result->category[i] =
          rng->Normal(result->lambda[i], std::sqrt(result->nu_sq[i]));
    }
  } else {
    result->category = result->lambda;
  }
}

}  // namespace crowdselect
