#include "la/dense_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/error.hpp"

namespace matex::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols,
                         std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  MATEX_CHECK(data_.size() == rows_ * cols_, "data size must be rows*cols");
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::top_left(std::size_t m) const {
  MATEX_CHECK(m <= rows_ && m <= cols_);
  DenseMatrix r(m, m);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < m; ++i) r(i, j) = (*this)(i, j);
  return r;
}

void DenseMatrix::add_scaled(double a, const DenseMatrix& other) {
  MATEX_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += a * other.data_[k];
}

DenseMatrix DenseMatrix::scaled(double a) const {
  DenseMatrix r = *this;
  for (double& v : r.data_) v *= a;
  return r;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix r(cols_, rows_);
  for (std::size_t j = 0; j < cols_; ++j)
    for (std::size_t i = 0; i < rows_; ++i) r(j, i) = (*this)(i, j);
  return r;
}

double DenseMatrix::norm1() const {
  double m = 0.0;
  for (std::size_t j = 0; j < cols_; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) s += std::abs((*this)(i, j));
    m = std::max(m, s);
  }
  return m;
}

double DenseMatrix::norm_max() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

void DenseMatrix::multiply(std::span<const double> x,
                           std::span<double> y) const {
  MATEX_CHECK(x.size() == cols_ && y.size() == rows_);
  std::fill(y.begin(), y.end(), 0.0);
  // Column-major: accumulate per column so the inner loop is unit stride.
  for (std::size_t j = 0; j < cols_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* cj = data_.data() + j * rows_;
    for (std::size_t i = 0; i < rows_; ++i) y[i] += cj[i] * xj;
  }
}

void DenseMatrix::multiply_transpose(std::span<const double> x,
                                     std::span<double> y) const {
  MATEX_CHECK(x.size() == rows_ && y.size() == cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    const double* cj = data_.data() + j * rows_;
    double s = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) s += cj[i] * x[i];
    y[j] = s;
  }
}

// Starts on a cache-line boundary so its speed does not depend on the
// rest of the binary. This is the inner kernel of every Krylov step's
// dense exponential (over half of an I-MATEX node's time at tol = 1e-8),
// and its short inner loop ran ~30% slower when unrelated code growth
// elsewhere shifted it by a fraction of a cache line.
[[gnu::aligned(64)]] DenseMatrix DenseMatrix::matmul(
    const DenseMatrix& b) const {
  MATEX_CHECK(cols_ == b.rows_, "inner dimensions must agree");
  DenseMatrix c(rows_, b.cols_);
  // jki order: C(:,j) += A(:,k) * B(k,j); all accesses unit stride.
  for (std::size_t j = 0; j < b.cols_; ++j) {
    double* cj = c.data_.data() + j * rows_;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      const double* ak = data_.data() + k * rows_;
      for (std::size_t i = 0; i < rows_; ++i) cj[i] += ak[i] * bkj;
    }
  }
  return c;
}

double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b) {
  MATEX_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

void supernode_apply_updates(const double* panel, std::size_t ld,
                             std::size_t ncols, std::size_t u_start,
                             double* z) {
  for (std::size_t u = u_start; u < ncols; ++u) {
    const double y = z[u];
    if (y == 0.0) continue;  // same skip as the scalar replay
    const double* col = panel + u * ld;
    for (std::size_t i = u + 1; i < ld; ++i) z[i] -= col[i] * y;
  }
}

bool supernode_panel_factorize(double* panel, std::size_t ld,
                               std::size_t width, double pivot_tol,
                               double& min_abs_pivot) {
  for (std::size_t t = 0; t < width; ++t) {
    double* col = panel + t * ld;
    supernode_apply_updates(panel, ld, t, 0, col);
    const double pivot = col[t];
    // Frozen-pivot admissibility over the column (padded cells hold
    // exact zeros, which never change the max).
    double amax = std::abs(pivot);
    for (std::size_t i = t + 1; i < ld; ++i)
      amax = std::max(amax, std::abs(col[i]));
    if (!(std::abs(pivot) >= pivot_tol * amax) || pivot == 0.0)
      return false;
    min_abs_pivot = std::min(min_abs_pivot, std::abs(pivot));
    for (std::size_t i = t + 1; i < ld; ++i) col[i] /= pivot;
  }
  return true;
}

void SupernodeWorkspace::resize(std::size_t workspace_cells,
                                std::size_t panel_rows) {
  if (wbuf_.size() < workspace_cells) wbuf_.resize(workspace_cells);
  if (z_.size() < panel_rows) z_.resize(panel_rows);
}

}  // namespace matex::la
