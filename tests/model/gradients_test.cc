// Verifies the re-derived analytic gradient and Hessian of the per-task
// evidence-bound subproblem (DESIGN.md "Corrections to the paper's
// appendix") against central differences, and that the Newton solver
// returns its stationary point.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/cholesky.h"
#include "linalg/gradient_check.h"
#include "model/variational.h"
#include "util/rng.h"

namespace crowdselect {
namespace {

using internal::LambdaCProblem;

struct ProblemFixture {
  Matrix sigma_c_inv;
  Vector mu_c;
  LambdaCProblem problem;
};

ProblemFixture MakeProblem(size_t k, bool with_scores, uint64_t seed) {
  ProblemFixture fx;
  Rng rng(seed);

  Matrix sigma_c(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) sigma_c(i, j) = rng.Normal();
  }
  sigma_c = sigma_c.Multiply(sigma_c.Transposed());
  sigma_c.AddDiagonal(1.0);
  auto chol = Cholesky::Factorize(sigma_c);
  CS_CHECK(chol.ok());
  fx.sigma_c_inv = chol->Inverse();
  fx.mu_c = Vector(k);
  for (size_t i = 0; i < k; ++i) fx.mu_c[i] = 0.3 * rng.Normal();

  fx.problem.total_tokens = 25.0;
  fx.problem.eps = 3.7;
  fx.problem.nu_sq = Vector(k, 0.5);
  fx.problem.phi_weight_sum = Vector(k);
  for (size_t i = 0; i < k; ++i) {
    fx.problem.phi_weight_sum[i] = rng.Uniform(0.0, 5.0);
  }
  if (with_scores) {
    fx.problem.h = Matrix(k, k);
    fx.problem.b = Vector(k);
    for (int obs = 0; obs < 4; ++obs) {
      Vector lw(k);
      for (size_t i = 0; i < k; ++i) lw[i] = rng.Normal(1.0, 0.8);
      Vector nw(k);
      for (size_t i = 0; i < k; ++i) nw[i] = rng.Uniform(0.05, 0.4);
      const double inv_tau_sq = 1.0 / 0.25;
      fx.problem.h.AddOuter(lw, inv_tau_sq);
      fx.problem.h.AddDiagonal(nw, inv_tau_sq);
      fx.problem.b.Axpy(rng.Normal(2.0, 1.0) * inv_tau_sq, lw);
    }
  }
  return fx;
}

class LambdaCGradientSweep
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(LambdaCGradientSweep, AnalyticMatchesNumeric) {
  const auto [k, with_scores] = GetParam();
  ProblemFixture fx = MakeProblem(k, with_scores, 100 + k);
  fx.problem.sigma_c_inv = &fx.sigma_c_inv;
  fx.problem.mu_c = &fx.mu_c;

  Rng rng(k);
  Vector x(k);
  for (size_t i = 0; i < k; ++i) x[i] = rng.Normal(0.0, 0.7);

  auto objective = [&fx](const Vector& lambda, Vector* grad) {
    return fx.problem.Objective(lambda, grad);
  };
  auto report = CheckGradient(objective, x, 1e-6);
  EXPECT_LT(report.max_rel_error, 1e-5)
      << "k=" << k << " with_scores=" << with_scores
      << " worst coordinate " << report.worst_coordinate;
}

INSTANTIATE_TEST_SUITE_P(
    Dims, LambdaCGradientSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 5, 10, 20),
                       ::testing::Bool()));

TEST(LambdaCObjectiveTest, ConvexAlongRandomSegments) {
  // f(mid) <= (f(a) + f(b)) / 2 for a convex objective.
  ProblemFixture fx = MakeProblem(6, true, 55);
  fx.problem.sigma_c_inv = &fx.sigma_c_inv;
  fx.problem.mu_c = &fx.mu_c;
  Rng rng(56);
  Vector grad(6);
  for (int trial = 0; trial < 30; ++trial) {
    Vector a(6), b(6);
    for (size_t i = 0; i < 6; ++i) {
      a[i] = rng.Normal(0.0, 1.5);
      b[i] = rng.Normal(0.0, 1.5);
    }
    Vector mid = (a + b) * 0.5;
    const double fa = fx.problem.Objective(a, &grad);
    const double fb = fx.problem.Objective(b, &grad);
    const double fm = fx.problem.Objective(mid, &grad);
    EXPECT_LE(fm, 0.5 * (fa + fb) + 1e-9);
  }
}

TEST(LambdaCHessianTest, MatchesNumericDerivativeOfGradient) {
  for (bool with_scores : {false, true}) {
    ProblemFixture fx = MakeProblem(7, with_scores, 61);
    fx.problem.sigma_c_inv = &fx.sigma_c_inv;
    fx.problem.mu_c = &fx.mu_c;
    Rng rng(62);
    Vector x(7);
    for (size_t i = 0; i < 7; ++i) x[i] = rng.Normal(0.0, 0.7);
    const Matrix hessian = fx.problem.Hessian(x);
    for (size_t col = 0; col < 7; ++col) {
      // Column `col` is the central difference of the gradient along e_col.
      const double h = 1e-6;
      Vector plus = x, minus = x;
      plus[col] += h;
      minus[col] -= h;
      Vector g_plus(7), g_minus(7);
      fx.problem.Objective(plus, &g_plus);
      fx.problem.Objective(minus, &g_minus);
      for (size_t row = 0; row < 7; ++row) {
        const double numeric = (g_plus[row] - g_minus[row]) / (2.0 * h);
        EXPECT_NEAR(hessian(row, col), numeric,
                    1e-5 * std::max(1.0, std::fabs(numeric)))
            << "with_scores=" << with_scores << " (" << row << ", " << col
            << ")";
      }
    }
  }
}

// The Newton solve must land on the stationary point of the convex
// objective: gradient max-norm under the 1e-4 tolerance, `converged` set,
// and no random perturbation of the answer doing better.
class LambdaCSolveSweep
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(LambdaCSolveSweep, ReturnsTheStationaryPoint) {
  const auto [k, with_scores] = GetParam();
  ProblemFixture fx = MakeProblem(k, with_scores, 300 + k);
  fx.problem.sigma_c_inv = &fx.sigma_c_inv;
  fx.problem.mu_c = &fx.mu_c;
  Rng rng(301 + k);
  Vector init(k);
  for (size_t i = 0; i < k; ++i) init[i] = rng.Normal(0.0, 0.7);

  const internal::LambdaCSolution solved =
      internal::SolveLambdaC(fx.problem, init);
  EXPECT_TRUE(solved.converged);
  Vector grad(k);
  const double value = fx.problem.Objective(solved.x, &grad);
  EXPECT_LT(grad.MaxAbs(), 1e-4);
  EXPECT_DOUBLE_EQ(value, solved.value);
  EXPECT_DOUBLE_EQ(grad.MaxAbs(), solved.gradient_norm);
  EXPECT_GT(solved.iterations, 0);
  for (double scale : {1e-1, 1e-2, 1e-3}) {
    for (int trial = 0; trial < 20; ++trial) {
      Vector perturbed = solved.x;
      for (size_t i = 0; i < k; ++i) perturbed[i] += scale * rng.Normal();
      EXPECT_LE(value, fx.problem.Objective(perturbed, &grad))
          << "scale " << scale << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, LambdaCSolveSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 30), ::testing::Bool()));

TEST(LambdaCSolveTest, BacktracksOnALongDocument) {
  // Many tokens under a small eps make L/eps large, and a start far below
  // the optimum makes the full Newton step overshoot into the exp terms,
  // so the line search has to shorten the first steps.
  for (bool with_scores : {false, true}) {
    ProblemFixture fx = MakeProblem(10, with_scores, 7);
    fx.problem.sigma_c_inv = &fx.sigma_c_inv;
    fx.problem.mu_c = &fx.mu_c;
    fx.problem.total_tokens = 2000.0;
    fx.problem.eps = 0.2;
    for (size_t i = 0; i < 10; ++i) {
      fx.problem.phi_weight_sum[i] = 200.0 + 20.0 * static_cast<double>(i);
    }
    const Vector init(10, -10.0);
    Vector grad(10);
    const double start = fx.problem.Objective(init, &grad);
    auto chol = Cholesky::Factorize(fx.problem.Hessian(init));
    ASSERT_TRUE(chol.ok());
    Vector full_step = init;
    full_step.Axpy(-1.0, chol->Solve(grad));
    Vector unused(10);
    const double after_full_step = fx.problem.Objective(full_step, &unused);
    ASSERT_FALSE(after_full_step < start) << "the full step must overshoot";

    const internal::LambdaCSolution solved =
        internal::SolveLambdaC(fx.problem, init);
    EXPECT_TRUE(solved.converged) << "with_scores=" << with_scores;
    EXPECT_LT(solved.gradient_norm, 1e-4);
    EXPECT_LT(solved.value, start);
  }
}

TEST(LambdaCSolveTest, NonFiniteObjectiveIsNotConverged) {
  ProblemFixture fx = MakeProblem(4, false, 9);
  fx.problem.sigma_c_inv = &fx.sigma_c_inv;
  fx.problem.mu_c = &fx.mu_c;
  fx.problem.phi_weight_sum[2] = std::numeric_limits<double>::quiet_NaN();
  const Vector init(4, 0.1);
  const internal::LambdaCSolution solved =
      internal::SolveLambdaC(fx.problem, init);
  EXPECT_FALSE(solved.converged);
  EXPECT_EQ(solved.iterations, 1);
  // Nothing was accepted, so the start comes back unchanged.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(solved.x[i], init[i]);
}

TEST(NuSqFixedPointTest, ConvergesToStationaryCondition) {
  ProblemFixture fx = MakeProblem(4, true, 77);
  fx.problem.sigma_c_inv = &fx.sigma_c_inv;
  fx.problem.mu_c = &fx.mu_c;
  Vector lambda(4, 0.2);
  fx.problem.UpdateNuSq(lambda, /*iterations=*/200, /*floor=*/1e-8);
  // Stationarity: 1/nu^2 = a + (L/eps) exp(lambda + nu^2/2).
  for (size_t i = 0; i < 4; ++i) {
    const double nu_sq = fx.problem.nu_sq[i];
    const double a = fx.problem.h(i, i) + fx.sigma_c_inv(i, i);
    const double rhs = a + (fx.problem.total_tokens / fx.problem.eps) *
                               std::exp(lambda[i] + 0.5 * nu_sq);
    EXPECT_NEAR(1.0 / nu_sq, rhs, 1e-4 * rhs);
  }
}

TEST(NuSqFixedPointTest, VariancesStayPositive) {
  ProblemFixture fx = MakeProblem(3, false, 88);
  fx.problem.sigma_c_inv = &fx.sigma_c_inv;
  fx.problem.mu_c = &fx.mu_c;
  fx.problem.total_tokens = 1e4;  // Extreme token pressure.
  Vector lambda(3, 2.0);
  fx.problem.UpdateNuSq(lambda, 50, 1e-8);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(fx.problem.nu_sq[i], 0.0);
    EXPECT_TRUE(std::isfinite(fx.problem.nu_sq[i]));
  }
}

TEST(PhiEpsUpdateTest, PhiRowsAreDistributions) {
  const size_t k = 4, vocab = 10;
  TdpmTrainData::TaskDoc doc;
  doc.terms = {{0, 2}, {3, 1}, {7, 4}};
  doc.total_tokens = 7.0;
  Matrix log_beta(k, vocab);
  Rng rng(99);
  for (size_t d = 0; d < k; ++d) {
    for (size_t v = 0; v < vocab; ++v) {
      log_beta(d, v) = std::log(rng.Uniform(0.01, 1.0));
    }
  }
  Vector lambda{0.5, -0.2, 1.0, 0.0};
  Vector nu_sq(k, 0.3);
  Matrix phi(doc.terms.size(), k);
  double eps = 0.0;
  internal::UpdatePhiAndEps(doc, lambda, nu_sq, log_beta, &phi, &eps);

  for (size_t p = 0; p < doc.terms.size(); ++p) {
    double row = 0.0;
    for (size_t d = 0; d < k; ++d) {
      EXPECT_GE(phi(p, d), 0.0);
      row += phi(p, d);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
  // Eq. 13.
  double expected_eps = 0.0;
  for (size_t d = 0; d < k; ++d) {
    expected_eps += std::exp(lambda[d] + 0.5 * nu_sq[d]);
  }
  EXPECT_NEAR(eps, expected_eps, 1e-12);
}

TEST(PhiEpsUpdateTest, PhiFavorsLikelyCategory) {
  const size_t k = 2, vocab = 2;
  TdpmTrainData::TaskDoc doc;
  doc.terms = {{0, 1}};
  doc.total_tokens = 1.0;
  Matrix log_beta(k, vocab);
  // Category 0 strongly prefers term 0.
  log_beta(0, 0) = std::log(0.9);
  log_beta(0, 1) = std::log(0.1);
  log_beta(1, 0) = std::log(0.1);
  log_beta(1, 1) = std::log(0.9);
  Vector lambda(k, 0.0);
  Vector nu_sq(k, 0.1);
  Matrix phi(1, k);
  double eps = 0.0;
  internal::UpdatePhiAndEps(doc, lambda, nu_sq, log_beta, &phi, &eps);
  EXPECT_GT(phi(0, 0), 0.85);
}

}  // namespace
}  // namespace crowdselect
