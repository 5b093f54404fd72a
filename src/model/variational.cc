#include "model/variational.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "model/elbo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdselect {

// ---------------------------------------------------------------------------
// Training-data extraction
// ---------------------------------------------------------------------------

TdpmTrainData TdpmTrainData::FromDatabase(const CrowdDatabase& db,
                                          std::vector<TaskId>* task_ids_out) {
  TdpmTrainData data;
  data.num_workers = db.NumWorkers();
  data.vocab_size = db.vocabulary().size();
  data.obs_of_worker.resize(data.num_workers);

  // Dense re-indexing of tasks that have at least one scored assignment.
  std::vector<uint32_t> task_index(db.NumTasks(), UINT32_MAX);
  if (task_ids_out) task_ids_out->clear();
  // UINT32_MAX - 1 marks "seen but skipped" (empty bag, e.g. a question
  // that tokenized to nothing): such tasks carry no text evidence and are
  // excluded from training rather than failing validation.
  constexpr uint32_t kSkipped = UINT32_MAX - 1;
  for (const AssignmentRecord& a : db.assignments()) {
    if (!a.has_score) continue;
    if (task_index[a.task] == kSkipped) continue;
    if (task_index[a.task] == UINT32_MAX) {
      const TaskRecord& rec = db.tasks()[a.task];
      if (rec.bag.empty()) {
        task_index[a.task] = kSkipped;
        continue;
      }
      task_index[a.task] = static_cast<uint32_t>(data.tasks.size());
      TaskDoc doc;
      doc.terms.reserve(rec.bag.DistinctTerms());
      for (const auto& e : rec.bag.entries()) {
        doc.terms.emplace_back(e.term, e.count);
      }
      doc.total_tokens = static_cast<double>(rec.bag.TotalTokens());
      data.tasks.push_back(std::move(doc));
      data.obs_of_task.emplace_back();
      if (task_ids_out) task_ids_out->push_back(a.task);
    }
    const uint32_t j = task_index[a.task];
    const uint32_t obs_index = static_cast<uint32_t>(data.observations.size());
    data.observations.push_back(Observation{a.worker, j, a.score});
    data.obs_of_worker[a.worker].push_back(obs_index);
    data.obs_of_task[j].push_back(obs_index);
  }
  return data;
}

TdpmTrainData TdpmTrainData::FromWorld(const GeneratedWorld& world,
                                       size_t num_workers, size_t vocab_size) {
  TdpmTrainData data;
  data.num_workers = num_workers;
  data.vocab_size = vocab_size;
  data.obs_of_worker.resize(num_workers);
  data.obs_of_task.resize(world.tasks.size());
  data.tasks.reserve(world.tasks.size());
  for (const GeneratedTask& t : world.tasks) {
    TaskDoc doc;
    for (const auto& e : t.bag.entries()) {
      doc.terms.emplace_back(e.term, e.count);
    }
    doc.total_tokens = static_cast<double>(t.bag.TotalTokens());
    data.tasks.push_back(std::move(doc));
  }
  for (const GeneratedScore& s : world.scores) {
    const uint32_t obs_index = static_cast<uint32_t>(data.observations.size());
    data.observations.push_back(Observation{s.worker, s.task, s.score});
    data.obs_of_worker[s.worker].push_back(obs_index);
    data.obs_of_task[s.task].push_back(obs_index);
  }
  return data;
}

Status TdpmTrainData::Validate() const {
  if (obs_of_worker.size() != num_workers) {
    return Status::Corruption("obs_of_worker size mismatch");
  }
  if (obs_of_task.size() != tasks.size()) {
    return Status::Corruption("obs_of_task size mismatch");
  }
  for (const auto& doc : tasks) {
    if (doc.terms.empty()) {
      return Status::InvalidArgument("task with empty bag-of-words");
    }
    for (const auto& [term, count] : doc.terms) {
      if (term >= vocab_size) return Status::Corruption("term out of range");
      if (count == 0) return Status::Corruption("zero term count");
    }
  }
  for (const auto& obs : observations) {
    if (obs.worker >= num_workers || obs.task >= tasks.size()) {
      return Status::Corruption("observation index out of range");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-task subproblem
// ---------------------------------------------------------------------------

namespace internal {

double LambdaCProblem::Objective(const Vector& lambda, Vector* grad) const {
  const size_t k = lambda.size();
  CS_DCHECK(grad != nullptr && grad->size() == k);

  // Prior: 1/2 (lambda - mu_c)^T Sigma_c^{-1} (lambda - mu_c).
  Vector diff = lambda;
  diff -= *mu_c;
  Vector prior_grad = sigma_c_inv->Multiply(diff);
  double value = 0.5 * diff.Dot(prior_grad);

  // Score terms: 1/2 lambda^T H lambda - b^T lambda.
  Vector score_grad(k);
  if (h.rows() == k) {
    score_grad = h.Multiply(lambda);
    value += 0.5 * lambda.Dot(score_grad) - b.Dot(lambda);
    score_grad -= b;
  }

  // Token term: -phi_weight_sum^T lambda.
  value -= phi_weight_sum.Dot(lambda);

  // Softmax Taylor bound: (L/eps) sum_k exp(lambda_k + nu_k^2 / 2).
  const double scale = total_tokens / eps;
  double bound = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double e = std::exp(lambda[i] + 0.5 * nu_sq[i]);
    bound += e;
    (*grad)[i] = prior_grad[i] + score_grad[i] - phi_weight_sum[i] + scale * e;
  }
  value += scale * bound;
  return value;
}

void LambdaCProblem::UpdateNuSq(const Vector& lambda, int iterations,
                                double floor) {
  const size_t k = lambda.size();
  // a_k = sum_i (lambda_w_k^2 + nu_w_k^2)/tau^2 + (Sigma_c^{-1})_kk, i.e.
  // the coefficient of nu^2 in the bound; H already aggregates the first
  // part on its diagonal.
  for (int it = 0; it < iterations; ++it) {
    for (size_t i = 0; i < k; ++i) {
      const double a = (h.rows() == k ? h(i, i) : 0.0) + (*sigma_c_inv)(i, i);
      const double pressure =
          (total_tokens / eps) * std::exp(lambda[i] + 0.5 * nu_sq[i]);
      const double target = 1.0 / (a + pressure);
      // Damped update keeps the fixed point stable when pressure is large.
      nu_sq[i] = std::max(floor, 0.5 * nu_sq[i] + 0.5 * target);
    }
  }
}

void UpdatePhiAndEps(const TdpmTrainData::TaskDoc& doc, const Vector& lambda,
                     const Vector& nu_sq, const Matrix& log_beta, Matrix* phi,
                     double* eps) {
  const size_t k = lambda.size();
  CS_DCHECK(phi->rows() == doc.terms.size() && phi->cols() == k);

  // Eq. 13: eps_j = sum_k exp(lambda_k + nu_k^2 / 2).
  double eps_acc = 0.0;
  for (size_t i = 0; i < k; ++i) {
    eps_acc += std::exp(lambda[i] + 0.5 * nu_sq[i]);
  }
  *eps = std::max(eps_acc, 1e-300);

  // Eq. 12 (corrected): phi_{p,k} proportional to exp(lambda_k) *
  // beta_{k, v_p}; computed in log space with a max-shift.
  std::vector<double> logits(k);
  for (size_t p = 0; p < doc.terms.size(); ++p) {
    const TermId v = doc.terms[p].first;
    double max_logit = -1e300;
    for (size_t i = 0; i < k; ++i) {
      logits[i] = lambda[i] + log_beta(i, v);
      max_logit = std::max(max_logit, logits[i]);
    }
    double z = 0.0;
    for (size_t i = 0; i < k; ++i) {
      logits[i] = std::exp(logits[i] - max_logit);
      z += logits[i];
    }
    for (size_t i = 0; i < k; ++i) (*phi)(p, i) = logits[i] / z;
  }
}

Matrix LambdaCProblem::Hessian(const Vector& lambda) const {
  const size_t k = lambda.size();
  Matrix hessian = *sigma_c_inv;
  if (h.rows() == k) hessian += h;
  const double scale = total_tokens / eps;
  for (size_t i = 0; i < k; ++i) {
    hessian(i, i) += scale * std::exp(lambda[i] + 0.5 * nu_sq[i]);
  }
  return hessian;
}

LambdaCSolution SolveLambdaC(const LambdaCProblem& problem, const Vector& init) {
  // The objective is strictly convex with a closed-form Hessian, so Newton
  // takes full steps near the optimum and reaches the tolerance in a few
  // iterations; the cap only bounds inputs the line search cannot improve.
  constexpr int kMaxIterations = 50;
  constexpr double kGradientTolerance = 1e-4;
  constexpr double kArmijoC1 = 1e-4;
  constexpr double kBacktrackFactor = 0.5;
  constexpr int kMaxBacktracks = 40;

  LambdaCSolution result;
  result.x = init;
  Vector grad(init.size());
  Vector trial_grad(init.size());
  result.value = problem.Objective(result.x, &grad);
  result.gradient_norm = grad.MaxAbs();
  while (result.iterations < kMaxIterations) {
    ++result.iterations;
    // Every gradient term also enters the value, so a non-finite gradient
    // shows as a non-finite value (MaxAbs alone would skip a NaN).
    if (!std::isfinite(result.value) ||
        result.gradient_norm < kGradientTolerance) {
      break;
    }
    auto chol = Cholesky::FactorizeWithJitter(problem.Hessian(result.x));
    if (!chol.ok()) break;
    // Newton direction -step, with step = Hessian^{-1} grad.
    const Vector step = chol->Solve(grad);
    const double slope = -grad.Dot(step);
    bool accepted = false;
    double t = 1.0;
    for (int ls = 0; ls < kMaxBacktracks; ++ls, t *= kBacktrackFactor) {
      Vector trial = result.x;
      trial.Axpy(-t, step);
      const double value = problem.Objective(trial, &trial_grad);
      if (std::isfinite(value) &&
          value <= result.value + kArmijoC1 * t * slope) {
        result.x = std::move(trial);
        result.value = value;
        std::swap(grad, trial_grad);
        accepted = true;
        break;
      }
    }
    if (!accepted) break;
    result.gradient_norm = grad.MaxAbs();
  }
  result.converged =
      std::isfinite(result.value) && result.gradient_norm < kGradientTolerance;
  return result;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

namespace {

using internal::LambdaCProblem;
using internal::UpdatePhiAndEps;

// Initializes the variational state deterministically from the seed:
// small random means break symmetry across categories.
TdpmVariationalState InitState(const TdpmTrainData& data, size_t k,
                               uint64_t seed) {
  TdpmVariationalState state;
  Rng rng(seed);
  state.workers.resize(data.num_workers);
  for (auto& w : state.workers) {
    w.lambda = Vector(k);
    for (size_t i = 0; i < k; ++i) w.lambda[i] = 0.1 * rng.Normal();
    w.nu_sq = Vector(k, 1.0);
  }
  state.tasks.resize(data.tasks.size());
  for (size_t j = 0; j < data.tasks.size(); ++j) {
    auto& t = state.tasks[j];
    t.lambda = Vector(k);
    for (size_t i = 0; i < k; ++i) t.lambda[i] = 0.1 * rng.Normal();
    t.nu_sq = Vector(k, 1.0);
    t.eps = static_cast<double>(k);
    t.phi = Matrix(data.tasks[j].terms.size(), k,
                   1.0 / static_cast<double>(k));
  }
  return state;
}

// Seeds beta from the empirical term distributions with per-category
// random perturbation (symmetric initialization would never separate
// categories).
Matrix InitBeta(const TdpmTrainData& data, size_t k, double smoothing,
                uint64_t seed) {
  Rng rng(seed ^ 0xBEBEBEBEULL);
  std::vector<double> term_totals(data.vocab_size, 0.0);
  double total = 0.0;
  for (const auto& doc : data.tasks) {
    for (const auto& [term, count] : doc.terms) {
      term_totals[term] += count;
      total += count;
    }
  }
  Matrix beta(k, data.vocab_size);
  for (size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (size_t v = 0; v < data.vocab_size; ++v) {
      const double base = total > 0.0 ? term_totals[v] / total
                                      : 1.0 / static_cast<double>(data.vocab_size);
      const double x = (base + smoothing) * (0.5 + rng.Uniform());
      beta(i, v) = x;
      row_sum += x;
    }
    for (size_t v = 0; v < data.vocab_size; ++v) beta(i, v) /= row_sum;
  }
  return beta;
}

Matrix LogOf(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      out(i, j) = std::log(std::max(m(i, j), 1e-300));
    }
  }
  return out;
}

}  // namespace

TdpmTrainer::TdpmTrainer(TdpmOptions options) : options_(std::move(options)) {}

Result<TdpmFitResult> TdpmTrainer::Fit(const TdpmTrainData& data) const {
  CS_RETURN_NOT_OK(options_.Validate());
  CS_RETURN_NOT_OK(data.Validate());
  if (data.tasks.empty()) {
    return Status::FailedPrecondition("no resolved tasks to train on");
  }
  const size_t k = options_.num_categories;

  // Observability: per-phase spans plus counters for the lambda_c solves
  // (metric names are catalogued in DESIGN.md §"Observability"; the
  // em.cg.* names predate the Newton solver and are kept for dashboards).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* cg_iterations = reg.GetCounter("em.cg.iterations");
  obs::Counter* cg_solves = reg.GetCounter("em.cg.solves");
  obs::Counter* cg_converged = reg.GetCounter("em.cg.converged");
  obs::Counter* em_iterations = reg.GetCounter("em.iterations");
  obs::Gauge* elbo_gauge = reg.GetGauge("em.elbo");
  reg.GetCounter("em.fits")->Increment();
  CS_SPAN(fit_span, "em.fit");

  TdpmFitResult result;
  result.params = TdpmModelParams::Init(k, data.vocab_size);
  result.params.beta =
      InitBeta(data, k, options_.beta_smoothing, options_.seed);
  result.state = InitState(data, k, options_.seed);

  // Ablation A1: content-only inference replaces every feedback score with
  // a constant, removing the quality signal but keeping the structure.
  std::vector<double> scores(data.observations.size());
  for (size_t o = 0; o < data.observations.size(); ++o) {
    scores[o] = options_.use_feedback ? data.observations[o].score : 1.0;
  }

  ThreadPool pool(options_.num_threads);
  TdpmModelParams& params = result.params;
  TdpmVariationalState& state = result.state;

  double prev_elbo = -1e300;
  for (int iteration = 0; iteration < options_.max_em_iterations; ++iteration) {
    CS_SPAN(iteration_span, "em.iteration");
    em_iterations->Increment();
    // Cached per-iteration quantities.
    CS_ASSIGN_OR_RETURN(Cholesky chol_w,
                        Cholesky::FactorizeWithJitter(params.sigma_w));
    CS_ASSIGN_OR_RETURN(Cholesky chol_c,
                        Cholesky::FactorizeWithJitter(params.sigma_c));
    const Matrix sigma_w_inv = chol_w.Inverse();
    const Matrix sigma_c_inv = chol_c.Inverse();
    const Vector sigma_w_inv_mu = sigma_w_inv.Multiply(params.mu_w);
    const Matrix log_beta = LogOf(params.beta);
    const double inv_tau_sq = 1.0 / (params.tau * params.tau);

    // --- E-step: worker posteriors (Eqs. 10-11) --------------------------
    {
      CS_SPAN(worker_step_span, "em.e_step.workers");
      pool.ParallelFor(data.num_workers, [&](size_t i) {
        WorkerPosterior& w = state.workers[i];
        if (data.obs_of_worker[i].empty()) {
          // No evidence: posterior equals the prior.
          w.lambda = params.mu_w;
          for (size_t d = 0; d < k; ++d) {
            w.nu_sq[d] = std::max(options_.variance_floor,
                                  1.0 / std::max(sigma_w_inv(d, d), 1e-12));
          }
          return;
        }
        Matrix m = sigma_w_inv;
        Vector rhs = sigma_w_inv_mu;
        for (uint32_t o : data.obs_of_worker[i]) {
          const auto& obs = data.observations[o];
          const TaskPosterior& t = state.tasks[obs.task];
          m.AddOuter(t.lambda, inv_tau_sq);
          m.AddDiagonal(t.nu_sq, inv_tau_sq);
          rhs.Axpy(scores[o] * inv_tau_sq, t.lambda);
        }
        auto solve = Cholesky::FactorizeWithJitter(m);
        CS_CHECK(solve.ok()) << solve.status().ToString();
        w.lambda = solve->Solve(rhs);
        for (size_t d = 0; d < k; ++d) {
          // Eq. 11 uses only the diagonal precision contribution.
          w.nu_sq[d] = std::max(options_.variance_floor, 1.0 / m(d, d));
        }
      });
    }

    // --- E-step: task posteriors (Eqs. 12-15) ----------------------------
    {
      CS_SPAN(task_step_span, "em.e_step.tasks");
      pool.ParallelFor(data.tasks.size(), [&](size_t j) {
        const TdpmTrainData::TaskDoc& doc = data.tasks[j];
        TaskPosterior& t = state.tasks[j];

        LambdaCProblem problem;
        problem.sigma_c_inv = &sigma_c_inv;
        problem.mu_c = &params.mu_c;
        problem.total_tokens = doc.total_tokens;
        problem.nu_sq = t.nu_sq;
        if (!data.obs_of_task[j].empty()) {
          problem.h = Matrix(k, k);
          problem.b = Vector(k);
          for (uint32_t o : data.obs_of_task[j]) {
            const auto& obs = data.observations[o];
            const WorkerPosterior& w = state.workers[obs.worker];
            problem.h.AddOuter(w.lambda, inv_tau_sq);
            problem.h.AddDiagonal(w.nu_sq, inv_tau_sq);
            problem.b.Axpy(scores[o] * inv_tau_sq, w.lambda);
          }
        }

        // Two inner rounds of (phi, eps) <-> (lambda, nu) coordinate ascent.
        for (int inner = 0; inner < 2; ++inner) {
          UpdatePhiAndEps(doc, t.lambda, t.nu_sq, log_beta, &t.phi, &t.eps);
          problem.eps = t.eps;
          problem.phi_weight_sum = Vector(k);
          for (size_t p = 0; p < doc.terms.size(); ++p) {
            const double n = doc.terms[p].second;
            for (size_t d = 0; d < k; ++d) {
              problem.phi_weight_sum[d] += n * t.phi(p, d);
            }
          }
          internal::LambdaCSolution solved =
              internal::SolveLambdaC(problem, t.lambda);
          cg_solves->Increment();
          cg_iterations->Increment(static_cast<uint64_t>(solved.iterations));
          if (solved.converged) cg_converged->Increment();
          t.lambda = std::move(solved.x);
          problem.UpdateNuSq(t.lambda, options_.nu_c_iterations,
                             options_.variance_floor);
          t.nu_sq = problem.nu_sq;
        }
        UpdatePhiAndEps(doc, t.lambda, t.nu_sq, log_beta, &t.phi, &t.eps);
      });
    }

    // --- M-step (Eqs. 16-21) ---------------------------------------------
    {
      CS_SPAN(m_step_span, "em.m_step");
      // mu_w, Sigma_w.
      Vector mu_w(k);
      for (const auto& w : state.workers) mu_w += w.lambda;
      mu_w *= 1.0 / static_cast<double>(data.num_workers);
      Matrix sigma_w(k, k);
      for (const auto& w : state.workers) {
        Vector d = w.lambda;
        d -= mu_w;
        sigma_w.AddOuter(d);
        sigma_w.AddDiagonal(w.nu_sq, 1.0);
      }
      sigma_w *= 1.0 / static_cast<double>(data.num_workers);
      // mu_c, Sigma_c.
      Vector mu_c(k);
      for (const auto& t : state.tasks) mu_c += t.lambda;
      mu_c *= 1.0 / static_cast<double>(state.tasks.size());
      Matrix sigma_c(k, k);
      for (const auto& t : state.tasks) {
        Vector d = t.lambda;
        d -= mu_c;
        sigma_c.AddOuter(d);
        sigma_c.AddDiagonal(t.nu_sq, 1.0);
      }
      sigma_c *= 1.0 / static_cast<double>(state.tasks.size());
      if (options_.diagonal_covariance) {
        for (size_t a = 0; a < k; ++a) {
          for (size_t b = 0; b < k; ++b) {
            if (a != b) {
              sigma_w(a, b) = 0.0;
              sigma_c(a, b) = 0.0;
            }
          }
        }
      }
      // Guard against the shrinkage spiral (see TdpmOptions::
      // prior_variance_floor): keep each prior variance above the floor.
      for (size_t a = 0; a < k; ++a) {
        sigma_w(a, a) = std::max(sigma_w(a, a), options_.prior_variance_floor);
        sigma_c(a, a) = std::max(sigma_c(a, a), options_.prior_variance_floor);
      }
      params.mu_w = std::move(mu_w);
      params.sigma_w = std::move(sigma_w);
      params.mu_c = std::move(mu_c);
      params.sigma_c = std::move(sigma_c);

      // tau^2 (Eq. 20, exact second moment).
      if (!data.observations.empty()) {
        double acc = 0.0;
        for (size_t o = 0; o < data.observations.size(); ++o) {
          const auto& obs = data.observations[o];
          const WorkerPosterior& w = state.workers[obs.worker];
          const TaskPosterior& t = state.tasks[obs.task];
          const double mean = w.lambda.Dot(t.lambda);
          double second = mean * mean;
          for (size_t d = 0; d < k; ++d) {
            second += w.lambda[d] * w.lambda[d] * t.nu_sq[d] +
                      t.lambda[d] * t.lambda[d] * w.nu_sq[d] +
                      w.nu_sq[d] * t.nu_sq[d];
          }
          acc += scores[o] * scores[o] - 2.0 * scores[o] * mean + second;
        }
        params.tau = std::sqrt(std::max(
            options_.variance_floor,
            acc / static_cast<double>(data.observations.size())));
      }

      // beta (Eq. 21) with additive smoothing.
      Matrix beta(k, data.vocab_size, options_.beta_smoothing);
      for (size_t j = 0; j < data.tasks.size(); ++j) {
        const auto& doc = data.tasks[j];
        const TaskPosterior& t = state.tasks[j];
        for (size_t p = 0; p < doc.terms.size(); ++p) {
          const double n = doc.terms[p].second;
          for (size_t d = 0; d < k; ++d) {
            beta(d, doc.terms[p].first) += n * t.phi(p, d);
          }
        }
      }
      for (size_t d = 0; d < k; ++d) {
        double row = 0.0;
        for (size_t v = 0; v < data.vocab_size; ++v) row += beta(d, v);
        for (size_t v = 0; v < data.vocab_size; ++v) beta(d, v) /= row;
      }
      params.beta = std::move(beta);
    }

    // --- Convergence check on the evidence bound -------------------------
    double elbo = 0.0;
    {
      CS_SPAN(elbo_span, "em.elbo");
      elbo = ComputeElbo(data, params, state, scores);
    }
    elbo_gauge->Set(elbo);
    result.elbo_history.push_back(elbo);
    result.iterations = iteration + 1;
    const double rel =
        std::fabs(elbo - prev_elbo) / (1.0 + std::fabs(prev_elbo));
    if (iteration > 0 && rel < options_.em_tolerance) {
      result.converged = true;
      break;
    }
    prev_elbo = elbo;
  }
  return result;
}

}  // namespace crowdselect
