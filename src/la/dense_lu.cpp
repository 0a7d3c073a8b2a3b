#include "la/dense_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "la/error.hpp"

namespace matex::la {

DenseLU::DenseLU(DenseMatrix a) : lu_(std::move(a)) { factorize_in_place(); }

void DenseLU::factorize(const DenseMatrix& a) {
  lu_ = a;
  factorize_in_place();
}

void DenseLU::factorize_in_place() {
  MATEX_CHECK(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the max-magnitude entry in column k.
    std::size_t p = k;
    double pmax = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    if (pmax == 0.0)
      throw NumericalError("DenseLU: matrix is singular at column " +
                           std::to_string(k));
    piv_[k] = p;
    if (p != k)
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));

    const double pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) lu_(i, k) /= pivot;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double ukj = lu_(k, j);
      if (ukj == 0.0) continue;
      for (std::size_t i = k + 1; i < n; ++i) lu_(i, j) -= lu_(i, k) * ukj;
    }
  }
}

void DenseLU::solve_in_place(std::span<double> b) const {
  const std::size_t n = lu_.rows();
  MATEX_CHECK(b.size() == n);
  for (std::size_t k = 0; k < n; ++k)
    if (piv_[k] != k) std::swap(b[k], b[piv_[k]]);
  // Forward substitution with unit lower triangle.
  for (std::size_t j = 0; j < n; ++j) {
    const double bj = b[j];
    if (bj == 0.0) continue;
    for (std::size_t i = j + 1; i < n; ++i) b[i] -= lu_(i, j) * bj;
  }
  // Backward substitution with U.
  for (std::size_t jj = n; jj-- > 0;) {
    b[jj] /= lu_(jj, jj);
    const double bj = b[jj];
    if (bj == 0.0) continue;
    for (std::size_t i = 0; i < jj; ++i) b[i] -= lu_(i, jj) * bj;
  }
}

std::vector<double> DenseLU::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

DenseMatrix DenseLU::solve(const DenseMatrix& b) const {
  MATEX_CHECK(b.rows() == order());
  DenseMatrix x = b;
  for (std::size_t j = 0; j < x.cols(); ++j) solve_in_place(x.col(j));
  return x;
}

DenseMatrix DenseLU::inverse() const {
  return solve(DenseMatrix::identity(order()));
}

double DenseLU::pivot_ratio() const {
  double umax = 0.0;
  double umin = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < lu_.rows(); ++i) {
    const double d = std::abs(lu_(i, i));
    umax = std::max(umax, d);
    umin = std::min(umin, d);
  }
  return umin == 0.0 ? std::numeric_limits<double>::infinity() : umax / umin;
}

std::vector<double> dense_solve(const DenseMatrix& a,
                                std::span<const double> b) {
  return DenseLU(a).solve(b);
}

}  // namespace matex::la
