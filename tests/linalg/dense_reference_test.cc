// Bitwise reference test for the dense SPD kernels. The loops below are
// textbook loops that compute one element at a time. Cholesky,
// Matrix::Multiply, Matrix::MaxAbs and Matrix::SymmetryError interleave
// independent elements, but must give every element the same IEEE
// operations in the same order, so their results must match these bit for
// bit. The kernels use only +, -, *, / and sqrt, which are correctly
// rounded, so the comparison holds on any IEEE-754 target without FMA
// contraction (see "Dense linear algebra" in docs/kernels.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "linalg/cholesky.h"
#include "util/rng.h"

namespace crowdselect {
namespace {

// ---------------------------------------------------------------------------
// Reference loops
// ---------------------------------------------------------------------------

double RefMaxAbs(const Matrix& m) {
  double acc = 0.0;
  for (double x : m.data()) acc = std::max(acc, std::fabs(x));
  return acc;
}

double RefSymmetryError(const Matrix& m) {
  double acc = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = i + 1; j < m.cols(); ++j) {
      acc = std::max(acc, std::fabs(m(i, j) - m(j, i)));
    }
  }
  return acc;
}

Vector RefMultiply(const Matrix& m, const Vector& v) {
  Vector out(m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < m.cols(); ++j) acc += m(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

struct RefFactor {
  Status status;
  Matrix l;
  double jitter = 0.0;
};

RefFactor RefFactorize(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return {Status::InvalidArgument("Cholesky requires a square matrix"), {}};
  }
  if (RefSymmetryError(a) > 1e-8 * (1.0 + RefMaxAbs(a))) {
    return {Status::InvalidArgument("Cholesky requires a symmetric matrix"),
            {}};
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return {Status::InvalidArgument("matrix is not positive definite"), {}};
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  return {Status::OK(), std::move(l)};
}

RefFactor RefFactorizeWithJitter(const Matrix& a, double initial_jitter = 1e-9,
                                 int max_tries = 12) {
  RefFactor direct = RefFactorize(a);
  if (direct.status.ok()) return direct;
  if (direct.status.message() == "Cholesky requires a square matrix" ||
      direct.status.message() == "Cholesky requires a symmetric matrix") {
    return direct;
  }
  double jitter = initial_jitter * (1.0 + RefMaxAbs(a));
  for (int t = 0; t < max_tries; ++t, jitter *= 10.0) {
    Matrix repaired = a;
    repaired.AddDiagonal(jitter);
    RefFactor attempt = RefFactorize(repaired);
    if (attempt.status.ok()) {
      attempt.jitter = jitter;
      return attempt;
    }
  }
  return {Status::InvalidArgument(
              "matrix not positive definite even after jitter repair"),
          {}};
}

Vector RefSolve(const Matrix& l, const Vector& b) {
  const size_t n = l.rows();
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
    y[i] = acc / l(i, i);
  }
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
    x[ii] = acc / l(ii, ii);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

// Bitwise equality. Two NaNs count as equal: which operand's payload a NaN
// result carries is not part of the contract.
bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameStatus(const Status& a, const Status& b) {
  if (a.code() == b.code() && a.message() == b.message()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a.ToString() << " vs " << b.ToString();
}

// Checks every kernel on `a` against its reference.
void ExpectMatchesReference(const Matrix& a, Rng* rng) {
  EXPECT_TRUE(SameBits(a.MaxAbs(), RefMaxAbs(a)));
  if (a.rows() == a.cols()) {
    EXPECT_TRUE(SameBits(a.SymmetryError(), RefSymmetryError(a)));
  }
  Vector v(a.cols());
  for (size_t i = 0; i < v.size(); ++i) v[i] = rng->Normal();
  EXPECT_TRUE(SameBits(a.Multiply(v).data(), RefMultiply(a, v).data()));

  const RefFactor ref = RefFactorize(a);
  const auto chol = Cholesky::Factorize(a);
  ASSERT_TRUE(SameStatus(chol.status(), ref.status));
  Vector b(a.rows());
  for (size_t i = 0; i < b.size(); ++i) b[i] = rng->Normal();
  if (ref.status.ok()) {
    EXPECT_TRUE(SameBits(chol->lower().data(), ref.l.data()));
    EXPECT_TRUE(SameBits(chol->Solve(b).data(), RefSolve(ref.l, b).data()));
  }

  const RefFactor ref_jitter = RefFactorizeWithJitter(a);
  const auto chol_jitter = Cholesky::FactorizeWithJitter(a);
  ASSERT_TRUE(SameStatus(chol_jitter.status(), ref_jitter.status));
  if (ref_jitter.status.ok()) {
    EXPECT_TRUE(SameBits(chol_jitter->jitter(), ref_jitter.jitter));
    EXPECT_TRUE(SameBits(chol_jitter->lower().data(), ref_jitter.l.data()));
    EXPECT_TRUE(SameBits(chol_jitter->Solve(b).data(),
                         RefSolve(ref_jitter.l, b).data()));
  }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng->Normal();
  return m;
}

// A A^T + boost I with A n x rank: SPD for rank == n and boost > 0,
// singular but positive semi-definite for rank < n and boost == 0.
Matrix Gram(size_t n, size_t rank, double boost, Rng* rng) {
  const Matrix a = RandomMatrix(n, rank, rng);
  Matrix gram = a.Multiply(a.Transposed());
  gram.AddDiagonal(boost);
  return gram;
}

enum class Kind {
  kSpd,
  kSpdRoundedAsymmetry,   // off-diagonal noise of a few ulps
  kSingular,              // PSD, rank n/2: needs jitter
  kIndefinite,            // one large negative pivot
  kAsymmetricWithin,      // asymmetry inside the tolerance
  kAsymmetricBeyond,      // asymmetry outside it
  kNaN,
  kInf,
};

constexpr Kind kKinds[] = {
    Kind::kSpd,        Kind::kSpdRoundedAsymmetry, Kind::kSingular,
    Kind::kIndefinite, Kind::kAsymmetricWithin,    Kind::kAsymmetricBeyond,
    Kind::kNaN,        Kind::kInf};

Matrix MakeInput(Kind kind, size_t n, Rng* rng) {
  Matrix a = Gram(n, n, 0.5, rng);
  const size_t p = static_cast<size_t>(rng->UniformInt(n));
  const size_t q = static_cast<size_t>(rng->UniformInt(n));
  const double tolerance = 1e-8 * (1.0 + RefMaxAbs(a));
  switch (kind) {
    case Kind::kSpd:
      break;
    case Kind::kSpdRoundedAsymmetry:
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          a(i, j) *= 1.0 + 4.0 * std::numeric_limits<double>::epsilon() *
                               rng->Normal();
        }
      }
      break;
    case Kind::kSingular:
      a = Gram(n, std::max<size_t>(1, n / 2), 0.0, rng);
      break;
    case Kind::kIndefinite:
      a(p, p) -= 3.0 * RefMaxAbs(a) + 1.0;
      break;
    case Kind::kAsymmetricWithin:
      if (p != q) a(p, q) += 0.5 * tolerance;
      break;
    case Kind::kAsymmetricBeyond:
      if (p != q) a(p, q) += 2.0 * tolerance;
      break;
    case Kind::kNaN:
      a(p, q) = std::numeric_limits<double>::quiet_NaN();
      break;
    case Kind::kInf:
      a(p, q) = std::numeric_limits<double>::infinity();
      a(q, p) = rng->Uniform() < 0.5 ? a(p, q) : -a(p, q);
      break;
  }
  return a;
}

// n = 1..64 covers every remainder of the four-row blocking.
TEST(DenseReferenceTest, KernelsMatchReferenceBitForBit) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (size_t n = 1; n <= 64; ++n) {
      for (Kind kind : kKinds) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                     std::to_string(n) + " kind " +
                     std::to_string(static_cast<int>(kind)));
        ExpectMatchesReference(MakeInput(kind, n, &rng), &rng);
      }
    }
  }
}

TEST(DenseReferenceTest, NonSquareMatchesReference) {
  Rng rng(4);
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t cols = 1; cols <= 9; ++cols) {
      if (rows == cols) continue;
      ExpectMatchesReference(RandomMatrix(rows, cols, &rng), &rng);
    }
  }
}

// A jitter retry whose shifted diagonal lowers the largest entry also
// lowers the symmetry tolerance; the reference then rejects that try as
// asymmetric and escalates. Here the try with jitter ~1e3 shifts the
// pivots from about -1e3 to about 1 and is rejected; the next one is taken.
TEST(DenseReferenceTest, JitterRetryRechecksSymmetry) {
  Matrix a = Matrix::Diagonal(Vector{-1000.0, -999.5, -999.5});
  a(0, 1) = a(1, 0) = 0.25;
  a(0, 2) = 5e-6;  // Within 1e-8 * (1 + 1000), beyond 1e-8 * (1 + ~1).
  const RefFactor ref = RefFactorizeWithJitter(a);
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  EXPECT_GT(ref.jitter, 5000.0);
  Rng rng(5);
  ExpectMatchesReference(a, &rng);
}

}  // namespace
}  // namespace crowdselect
