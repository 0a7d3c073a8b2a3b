/// \file expm.hpp
/// \brief Dense matrix exponential (Pade-13 scaling-and-squaring).
///
/// This is the kernel evaluated on the small Krylov-projected Hessenberg
/// matrices H_m: the paper computes e^{hA}v ~ ||v|| V_m e^{h H_m} e_1
/// (Eq. 9), so all exponentials taken here are of order m (tiny), while A
/// itself is only ever touched through sparse solves. The algorithm is the
/// Higham (2005) degree-13 Pade approximant with scaling and squaring --
/// the same method behind MATLAB's expm, which the original MATEX
/// implementation relied on.
#pragma once

#include <span>
#include <vector>

#include "la/dense_lu.hpp"
#include "la/dense_matrix.hpp"

namespace matex::la {

/// Reusable scratch for repeated small exponentials (the Krylov
/// evaluation and convergence checks of every MATEX segment). Once it has
/// served a matrix of order m, further calls at order <= m allocate
/// nothing. Every result is bitwise equal to the allocating functions
/// below, which run on a workspace of their own: one implementation.
///
/// Where only e^{tA} e_1 is wanted, the last stage (the Pade solve, or
/// the last squaring) forms column 0 alone; column 0 of a product or of a
/// column-by-column solve is computed by the same operations either way.
class ExpmWorkspace {
 public:
  /// e^{tA}. Valid until the next call on this workspace.
  const DenseMatrix& full(const DenseMatrix& a, double t);

  /// e^{tA} e_1. Valid until the next call on this workspace.
  std::span<const double> e1(const DenseMatrix& a, double t);

  /// e^{tA} e_1, with `hump` set as ExpmE1Hump::hump_last_entry: the max
  /// over the scaling-and-squaring stages of |f' e^{sA} e_1|, or of the
  /// last entry when f is empty.
  std::span<const double> e1_hump(const DenseMatrix& a, double t,
                                  std::span<const double> f, double& hump);

 private:
  /// Leaves e^{tA} in r_ (only column 0 of the last stage when
  /// `first_column_only`), sampling the hump into *hump when non-null.
  void compute(const DenseMatrix& a, double t, bool first_column_only,
               std::span<const double> f, double* hump);
  void low_degree(int degree, bool first_column_only);
  void pade13(bool first_column_only);
  /// r_ = (V - U)^{-1} (V + U) from u_ and v_.
  void pade_solve(bool first_column_only);
  void set_identity(std::size_t n);

  DenseMatrix at_, eye_, a2_, a4_, a6_, apow_, tmp_, u_, v_, num_;
  DenseMatrix r_;
  DenseLU lu_;
  std::vector<double> col_;  // column 0 of a column-only last stage
};

/// Returns e^{A} for a square dense matrix.
DenseMatrix expm(const DenseMatrix& a);

/// Returns e^{t*A}.
DenseMatrix expm(const DenseMatrix& a, double t);

/// Returns the first column of e^{t*A}, i.e. e^{t*A} e_1. This is the
/// quantity MATEX needs at every evaluation point; it simply extracts
/// column 0 of the full exponential (H is m x m with m small).
std::vector<double> expm_e1(const DenseMatrix& a, double t);

/// Returns e^{t*A} x.
std::vector<double> expm_apply(const DenseMatrix& a, double t,
                               std::span<const double> x);

/// Result of expm_e1_hump().
struct ExpmE1Hump {
  /// w = e^{t*A} e_1.
  std::vector<double> w;
  /// max over the scaling-and-squaring levels s of |(e^{(t/2^s) A})_{m,1}|,
  /// i.e. the last entry of the propagated e_1 column sampled at dyadic
  /// intermediate times. Krylov convergence control uses this to bound the
  /// ODE residual over the *whole* interval [0, t]; the endpoint value
  /// alone can be deceptively tiny for stiff H (the "hump" phenomenon).
  double hump_last_entry = 0.0;
};

/// Computes e^{t*A} e_1 while recording the hump sample described above.
/// Costs the same as expm(): the dyadic intermediates are exactly the
/// squaring stages the algorithm forms anyway.
ExpmE1Hump expm_e1_hump(const DenseMatrix& a, double t);

/// Generalized hump: records max_s |f' e^{s A} e_1| for a caller-supplied
/// linear functional f (the posterior error estimates of the inverted and
/// rational Krylov bases weight the last row by H'^{-1}, Eqs. (8)/(10)).
/// f must have a.rows() entries. The `hump_last_entry` field then holds
/// the functional hump instead of the plain last-entry hump.
ExpmE1Hump expm_e1_hump(const DenseMatrix& a, double t,
                        std::span<const double> f);

}  // namespace matex::la
