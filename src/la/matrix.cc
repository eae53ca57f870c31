#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/kernels.h"
#include "util/logging.h"

namespace wym::la {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

std::vector<double> Matrix::RowVector(size_t r) const {
  const double* p = Row(r);
  return std::vector<double>(p, p + cols_);
}

Matrix Matrix::Multiply(const Matrix& other) const {
  WYM_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = Row(i);
    double* out_row = out.Row(i);
    for (size_t k = 0; k < cols_; ++k) {
      const double a = a_row[k];
      if (a == 0.0) continue;
      kernels::Axpy(a, other.Row(k), out_row, other.cols_);
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    double* out_data = out.data_.data();
    for (size_t j = 0; j < cols_; ++j) {
      out_data[j * rows_ + i] = row[j];
    }
  }
  return out;
}

void Matrix::OrthonormalizeColumns() {
  constexpr double kEpsilon = 1e-12;
  // Work on the transpose so each column is one contiguous row: the
  // projection/renormalization loops become kernel Dot/Axpy/Scale calls
  // instead of stride-cols_ element walks through the checked At().
  Matrix t = Transposed();
  for (size_t j = 0; j < cols_; ++j) {
    double* col_j = t.Row(j);
    // Subtract projections on the previous columns (modified Gram-Schmidt).
    for (size_t k = 0; k < j; ++k) {
      const double* col_k = t.Row(k);
      const double dot = kernels::Dot(col_j, col_k, rows_);
      kernels::Axpy(-dot, col_k, col_j, rows_);
    }
    const double norm = std::sqrt(kernels::SquaredNorm(col_j, rows_));
    if (norm < kEpsilon) {
      std::fill(col_j, col_j + rows_, 0.0);
      continue;
    }
    kernels::Scale(1.0 / norm, col_j, rows_);
  }
  *this = t.Transposed();
}

void Matrix::Save(serde::Serializer* s) const {
  s->Tag("matrix/v1");
  s->U64(rows_);
  s->U64(cols_);
  s->VecF64(data_);
}

bool Matrix::Load(serde::Deserializer* d) {
  if (!d->Tag("matrix/v1")) return false;
  rows_ = d->U64();
  cols_ = d->U64();
  data_ = d->VecF64();
  // A wrapped rows*cols could match a short data vector and send At()
  // and Row() past its end.
  if (cols_ != 0 && rows_ > std::numeric_limits<size_t>::max() / cols_) {
    return false;
  }
  if (!d->ok() || data_.size() != rows_ * cols_) return false;
  return true;
}

std::vector<double> SolveLinearSystem(Matrix a, std::vector<double> b,
                                      double ridge) {
  const size_t n = a.rows();
  WYM_CHECK_EQ(a.cols(), n);
  WYM_CHECK_EQ(b.size(), n);
  for (size_t i = 0; i < n; ++i) a.At(i, i) += ridge;

  // Gaussian elimination with partial pivoting.
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::fabs(a.At(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a.At(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) continue;  // Singular direction; leave as-is.
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a.At(col, c), a.At(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double diagonal = a.At(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a.At(r, col) / diagonal;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) a.At(r, c) -= factor * a.At(col, c);
      b[r] -= factor * b[col];
    }
  }

  std::vector<double> x(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (size_t j = i + 1; j < n; ++j) sum -= a.At(i, j) * x[j];
    const double diagonal = a.At(i, i);
    x[i] = (std::fabs(diagonal) < 1e-12) ? 0.0 : sum / diagonal;
  }
  return x;
}

}  // namespace wym::la
