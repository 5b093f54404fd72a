#include "model/incremental_update.h"

#include "obs/metrics.h"

namespace crowdselect {

Result<IncrementalSkillUpdater> IncrementalSkillUpdater::Create(
    const TdpmModelParams& params) {
  IncrementalSkillUpdater updater;
  updater.mu_w_ = params.mu_w;
  CS_ASSIGN_OR_RETURN(Cholesky chol,
                      Cholesky::FactorizeWithJitter(params.sigma_w));
  updater.sigma_w_inv_ = chol.Inverse();
  updater.sigma_w_inv_mu_ = updater.sigma_w_inv_.Multiply(params.mu_w);
  if (params.tau <= 0.0) {
    return Status::InvalidArgument("tau must be positive");
  }
  updater.inv_tau_sq_ = 1.0 / (params.tau * params.tau);
  return updater;
}

IncrementalSkillUpdater::WorkerState
IncrementalSkillUpdater::NewWorkerState() const {
  WorkerState state;
  state.precision = sigma_w_inv_;
  state.rhs = sigma_w_inv_mu_;
  return state;
}

IncrementalSkillUpdater::WorkerState
IncrementalSkillUpdater::StateFromHistory(
    const std::vector<SkillObservation>& history) const {
  WorkerState state = NewWorkerState();
  for (const auto& obs : history) Observe(obs, &state);
  return state;
}

void IncrementalSkillUpdater::Observe(const SkillObservation& obs,
                                      WorkerState* state) const {
  // `obs` (the parameter) shadows the namespace here; qualify from root.
  static ::crowdselect::obs::Counter* observations =
      ::crowdselect::obs::MetricsRegistry::Global().GetCounter(
          "incremental.observations");
  observations->Increment();
  CS_DCHECK(obs.category_mean.size() == num_categories());
  CS_DCHECK(obs.category_var.size() == num_categories());
  state->precision.AddOuter(obs.category_mean, inv_tau_sq_);
  state->precision.AddDiagonal(obs.category_var, inv_tau_sq_);
  state->rhs.Axpy(obs.score * inv_tau_sq_, obs.category_mean);
  ++state->num_observations;
}

Result<WorkerPosterior> IncrementalSkillUpdater::Posterior(
    const WorkerState& state) const {
  // One K x K Cholesky factor-and-solve: O(K^3), independent of history
  // length (§4.2 req. (2)). An observe-and-refresh takes 2.4 µs at K=30
  // (bench/micro_components, 4-vCPU x86-64), and a resolve runs one per
  // feedback. Deliberately not span-instrumented: a metered span costs
  // 0.17 µs (BM_ScopedSpanOverhead), 7% of the call; the observation
  // counter above suffices.
  CS_ASSIGN_OR_RETURN(Cholesky chol,
                      Cholesky::FactorizeWithJitter(state.precision));
  WorkerPosterior posterior;
  posterior.lambda = chol.Solve(state.rhs);
  posterior.nu_sq = Vector(num_categories());
  for (size_t d = 0; d < num_categories(); ++d) {
    // Eq. 11: only the diagonal precision contributes.
    posterior.nu_sq[d] = 1.0 / state.precision(d, d);
  }
  return posterior;
}

}  // namespace crowdselect
