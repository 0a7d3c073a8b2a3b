/// \file dense_lu.hpp
/// \brief Dense LU factorization with partial pivoting.
///
/// Used for the small (Krylov-dimension) systems that appear inside the
/// matrix-exponential evaluation: inverting Hessenberg matrices for
/// I-MATEX / R-MATEX and the Pade solve inside expm.
#pragma once

#include <span>
#include <vector>

#include "la/dense_matrix.hpp"

namespace matex::la {

/// LU factorization P*A = L*U of a square dense matrix.
class DenseLU {
 public:
  /// Empty factorization; call factorize() before solving.
  DenseLU() = default;

  /// Factorizes a copy of `a`. Throws NumericalError on an exactly
  /// singular pivot.
  explicit DenseLU(DenseMatrix a);

  /// Refactorizes in place to `a`, reusing this object's storage once it
  /// has held a factorization of that order (allocation-free reuse).
  void factorize(const DenseMatrix& a);

  /// Solves A x = b in place.
  void solve_in_place(std::span<double> b) const;

  /// Solves A x = b, returning x.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves A X = B column by column, returning X.
  DenseMatrix solve(const DenseMatrix& b) const;

  /// Returns A^{-1} (via n solves against identity).
  DenseMatrix inverse() const;

  /// Growth-factor style estimate: max |u_ii| / min |u_ii|; large values
  /// indicate near-singularity.
  double pivot_ratio() const;

  std::size_t order() const { return lu_.rows(); }

 private:
  void factorize_in_place();

  DenseMatrix lu_;             // packed L (unit lower) and U
  std::vector<std::size_t> piv_;  // row permutation applied to b
};

/// Convenience: solve A x = b once (factorizes internally).
std::vector<double> dense_solve(const DenseMatrix& a,
                                std::span<const double> b);

}  // namespace matex::la
