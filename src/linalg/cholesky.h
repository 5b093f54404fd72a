// Cholesky factorization for symmetric positive-definite systems: the E-step
// update for lambda_w (Eq. 10) solves a K x K SPD system per worker, and the
// M-step needs log|Sigma| and Sigma^{-1}.
#ifndef CROWDSELECT_LINALG_CHOLESKY_H_
#define CROWDSELECT_LINALG_CHOLESKY_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace crowdselect {

/// Lower-triangular Cholesky factor of an SPD matrix, with solve/inverse/
/// logdet. Factorization fails with InvalidArgument when the input is not
/// (numerically) positive definite; see FactorizeWithJitter for repair.
class Cholesky {
 public:
  /// Factors A = L L^T. A must be square and symmetric.
  static Result<Cholesky> Factorize(const Matrix& a);

  /// Factors A + jitter*I, escalating jitter by 10x up to max_tries times
  /// until the factorization succeeds. Used on empirical covariances that
  /// are only positive semi-definite. A non-square or asymmetric A fails
  /// at once, without a retry.
  static Result<Cholesky> FactorizeWithJitter(const Matrix& a,
                                              double initial_jitter = 1e-9,
                                              int max_tries = 12);

  /// Solves A x = b.
  Vector Solve(const Vector& b) const;
  /// Solves A X = B column-wise.
  Matrix Solve(const Matrix& b) const;
  /// A^{-1} (via solves against identity).
  Matrix Inverse() const;
  /// log |A| = 2 * sum log L_ii.
  double LogDet() const;

  size_t size() const { return l_.rows(); }
  const Matrix& lower() const { return l_; }
  /// Jitter that was added to the diagonal (0 when Factorize succeeded
  /// without repair).
  double jitter() const { return jitter_; }

 private:
  explicit Cholesky(Matrix l, double jitter) : l_(std::move(l)), jitter_(jitter) {}

  Matrix l_;
  double jitter_ = 0.0;
};

/// Convenience: solves the SPD system A x = b with jitter repair.
Result<Vector> SolveSpd(const Matrix& a, const Vector& b);

/// Convenience: inverse of an SPD matrix with jitter repair.
Result<Matrix> InverseSpd(const Matrix& a);

}  // namespace crowdselect

#endif  // CROWDSELECT_LINALG_CHOLESKY_H_
