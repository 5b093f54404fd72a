#include "linalg/cholesky.h"

#include <cmath>

namespace crowdselect {

namespace {

// The symmetry test: max |a_ij - a_ji| <= 1e-8 * (1 + max |a_ij|). The
// right side is at least 1e-8, so an error at or below 1e-8 passes
// whatever the largest entry is, and the scan of every entry runs only
// for a larger error. `symmetry_error` is a.SymmetryError(); a diagonal
// shift leaves it unchanged but can change MaxAbs.
bool Symmetric(const Matrix& a, double symmetry_error) {
  return symmetry_error <= 1e-8 ||
         !(symmetry_error > 1e-8 * (1.0 + a.MaxAbs()));
}

// Checks that `a` is square and symmetric, and stores a.SymmetryError().
Status CheckPrecondition(const Matrix& a, double* symmetry_error) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  *symmetry_error = a.SymmetryError();
  if (!Symmetric(a, *symmetry_error)) {
    return Status::InvalidArgument("Cholesky requires a symmetric matrix");
  }
  return Status::OK();
}

// Factors a = L L^T into *l (n x n with a zero upper triangle; a failed
// earlier attempt may have left lower entries, which are overwritten
// before they are read). Returns false at the first column whose pivot is
// not positive and finite.
//
// Every element of L gets the same IEEE operations, in the same order, as
// the textbook column loop
//   l(i,j) = (a(i,j) - sum_{k<j} l(i,k) * l(j,k)) / l(j,j),
//   l(j,j) = sqrt(a(j,j) - sum_{k<j} l(j,k)^2),
// with each sum subtracted term by term in ascending k (see "Dense linear
// algebra" in docs/kernels.md). Speed comes only from interleaving
// independent elements: column j is computed four rows at a time, its
// diagonal included, as four independent chains over k, and divided by
// l(j,j) once the diagonal is known.
bool FactorLower(const Matrix& a, Matrix* l) {
  const size_t n = a.rows();
  for (size_t j = 0; j < n; ++j) {
    const double* lj = l->RowPtr(j);
    size_t i = j;
    for (; i + 4 <= n; i += 4) {
      const double* l0 = l->RowPtr(i);
      const double* l1 = l0 + n;
      const double* l2 = l1 + n;
      const double* l3 = l2 + n;
      double acc0 = a(i, j), acc1 = a(i + 1, j);
      double acc2 = a(i + 2, j), acc3 = a(i + 3, j);
      for (size_t k = 0; k < j; ++k) {
        const double ljk = lj[k];
        acc0 -= l0[k] * ljk;
        acc1 -= l1[k] * ljk;
        acc2 -= l2[k] * ljk;
        acc3 -= l3[k] * ljk;
      }
      (*l)(i, j) = acc0;
      (*l)(i + 1, j) = acc1;
      (*l)(i + 2, j) = acc2;
      (*l)(i + 3, j) = acc3;
    }
    for (; i < n; ++i) {
      const double* li = l->RowPtr(i);
      double acc = a(i, j);
      for (size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
      (*l)(i, j) = acc;
    }
    const double diag = (*l)(j, j);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    (*l)(j, j) = ljj;
    for (i = j + 1; i < n; ++i) (*l)(i, j) /= ljj;
  }
  return true;
}

}  // namespace

Result<Cholesky> Cholesky::Factorize(const Matrix& a) {
  double symmetry_error = 0.0;
  CS_RETURN_NOT_OK(CheckPrecondition(a, &symmetry_error));
  Matrix l(a.rows(), a.rows());
  if (!FactorLower(a, &l)) {
    return Status::InvalidArgument("matrix is not positive definite");
  }
  return Cholesky(std::move(l), /*jitter=*/0.0);
}

Result<Cholesky> Cholesky::FactorizeWithJitter(const Matrix& a,
                                               double initial_jitter,
                                               int max_tries) {
  // Shape and symmetry are checked once; a failed factorization retries
  // only the factor loop.
  double symmetry_error = 0.0;
  CS_RETURN_NOT_OK(CheckPrecondition(a, &symmetry_error));
  const size_t n = a.rows();
  Matrix l(n, n);
  if (FactorLower(a, &l)) return Cholesky(std::move(l), /*jitter=*/0.0);
  double jitter = initial_jitter * (1.0 + a.MaxAbs());
  Matrix repaired = a;
  for (int t = 0; t < max_tries; ++t, jitter *= 10.0) {
    for (size_t i = 0; i < n; ++i) repaired(i, i) = a(i, i) + jitter;
    // A shifted diagonal can lower the largest entry, and with it the
    // symmetry tolerance; such a try fails, as Factorize(repaired) would.
    if (Symmetric(repaired, symmetry_error) && FactorLower(repaired, &l)) {
      return Cholesky(std::move(l), jitter);
    }
  }
  return Status::InvalidArgument(
      "matrix not positive definite even after jitter repair");
}

Vector Cholesky::Solve(const Vector& b) const {
  CS_DCHECK(b.size() == size());
  const size_t n = size();
  Vector x = b;
  double* v = x.raw();
  // Forward substitution L y = b, in place and column by column: once
  // y[k] is known, every later row subtracts its term. Each row still
  // subtracts l(i,k) * y[k] in ascending k, as the row-by-row dot product
  // does, but the rows' chains overlap.
  for (size_t k = 0; k < n; ++k) {
    const double yk = v[k] / l_(k, k);
    v[k] = yk;
    for (size_t i = k + 1; i < n; ++i) v[i] -= l_(i, k) * yk;
  }
  // Back substitution L^T x = y, in place. Row ii's first term needs
  // x[ii+1], so these dot products are inherently one chain.
  for (size_t ii = n; ii-- > 0;) {
    double acc = v[ii];
    for (size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * v[k];
    v[ii] = acc / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::Solve(const Matrix& b) const {
  CS_DCHECK(b.rows() == size());
  Matrix out(b.rows(), b.cols());
  Vector col(b.rows());
  for (size_t j = 0; j < b.cols(); ++j) {
    for (size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    Vector x = Solve(col);
    for (size_t i = 0; i < b.rows(); ++i) out(i, j) = x[i];
  }
  return out;
}

Matrix Cholesky::Inverse() const { return Solve(Matrix::Identity(size())); }

double Cholesky::LogDet() const {
  double acc = 0.0;
  for (size_t i = 0; i < size(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Result<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  CS_ASSIGN_OR_RETURN(Cholesky chol, Cholesky::FactorizeWithJitter(a));
  return chol.Solve(b);
}

Result<Matrix> InverseSpd(const Matrix& a) {
  CS_ASSIGN_OR_RETURN(Cholesky chol, Cholesky::FactorizeWithJitter(a));
  return chol.Inverse();
}

}  // namespace crowdselect
