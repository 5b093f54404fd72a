#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace crowdselect {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::Outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) m(i, j) = a[i] * b[j];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  CS_DCHECK(rows_ == o.rows_ && cols_ == o.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  CS_DCHECK(rows_ == o.rows_ && cols_ == o.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::operator+(const Matrix& o) const {
  Matrix out = *this;
  out += o;
  return out;
}

Matrix Matrix::operator-(const Matrix& o) const {
  Matrix out = *this;
  out -= o;
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

void Matrix::AddDiagonal(double s) {
  CS_DCHECK(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) data_[i * cols_ + i] += s;
}

void Matrix::AddDiagonal(const Vector& d, double s) {
  CS_DCHECK(rows_ == cols_ && d.size() == rows_);
  for (size_t i = 0; i < rows_; ++i) data_[i * cols_ + i] += s * d[i];
}

void Matrix::AddOuter(const Vector& a, double s) {
  CS_DCHECK(rows_ == cols_ && a.size() == rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const double sai = s * a[i];
    for (size_t j = 0; j < cols_; ++j) data_[i * cols_ + j] += sai * a[j];
  }
}

Vector Matrix::Multiply(const Vector& v) const {
  CS_DCHECK(cols_ == v.size());
  Vector out(rows_);
  const double* x = v.raw();
  // Four rows at a time: four independent sums, each adding its row's
  // products in column order, so every entry is the one-row loop's sum
  // bit for bit while the four add chains overlap.
  size_t i = 0;
  for (; i + 4 <= rows_; i += 4) {
    const double* r0 = RowPtr(i);
    const double* r1 = r0 + cols_;
    const double* r2 = r1 + cols_;
    const double* r3 = r2 + cols_;
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      const double xj = x[j];
      acc0 += r0[j] * xj;
      acc1 += r1[j] * xj;
      acc2 += r2[j] * xj;
      acc3 += r3[j] * xj;
    }
    out[i] = acc0;
    out[i + 1] = acc1;
    out[i + 2] = acc2;
    out[i + 3] = acc3;
  }
  for (; i < rows_; ++i) {
    const double* row = RowPtr(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& o) const {
  CS_DCHECK(cols_ == o.rows_);
  Matrix out(rows_, o.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = data_[i * cols_ + k];
      if (aik == 0.0) continue;
      const double* brow = &o.data_[k * o.cols_];
      double* orow = &out.data_[i * o.cols_];
      for (size_t j = 0; j < o.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Vector Matrix::Row(size_t r) const {
  CS_DCHECK(r < rows_);
  Vector out(cols_);
  for (size_t j = 0; j < cols_; ++j) out[j] = data_[r * cols_ + j];
  return out;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  CS_DCHECK(r < rows_ && v.size() == cols_);
  for (size_t j = 0; j < cols_; ++j) data_[r * cols_ + j] = v[j];
}

double Matrix::FrobeniusDistance(const Matrix& o) const {
  CS_DCHECK(rows_ == o.rows_ && cols_ == o.cols_);
  double acc = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - o.data_[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double Matrix::MaxAbs() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::fabs(x));
  return acc;
}

double Matrix::Trace() const {
  CS_DCHECK(rows_ == cols_);
  double acc = 0.0;
  for (size_t i = 0; i < rows_; ++i) acc += data_[i * cols_ + i];
  return acc;
}

double Matrix::SymmetryError() const {
  CS_DCHECK(rows_ == cols_);
  // Four running maxima, so the scan is not one chain of dependent max
  // operations. The max of a set does not depend on the order it is taken
  // in, and std::max(acc, NaN) keeps acc, so a NaN (from Inf - Inf) is
  // skipped either way: the result is the one-chain scan's bit for bit.
  const size_t n = rows_;
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double* row = RowPtr(i);
    const double* col = data_.data() + i;  // col[j * n] == (*this)(j, i)
    size_t j = i + 1;
    for (; j + 4 <= n; j += 4) {
      m0 = std::max(m0, std::fabs(row[j] - col[j * n]));
      m1 = std::max(m1, std::fabs(row[j + 1] - col[(j + 1) * n]));
      m2 = std::max(m2, std::fabs(row[j + 2] - col[(j + 2) * n]));
      m3 = std::max(m3, std::fabs(row[j + 3] - col[(j + 3) * n]));
    }
    for (; j < n; ++j) m0 = std::max(m0, std::fabs(row[j] - col[j * n]));
  }
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

void Matrix::Symmetrize() {
  CS_DCHECK(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) {
      const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = avg;
      (*this)(j, i) = avg;
    }
  }
}

}  // namespace crowdselect
