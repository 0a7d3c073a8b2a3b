#include "la/expm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "la/error.hpp"

namespace matex::la {
namespace {

// Pade coefficients for degrees 3/5/7/9/13 (Higham 2005, Table 2.3 theta
// bounds). Using the lower-degree approximants when ||A||_1 is small keeps
// repeated Hessenberg exponentials cheap during Arnoldi convergence checks.
constexpr std::array<double, 4> kTheta{1.495585217958292e-2,   // deg 3
                                       2.539398330063230e-1,   // deg 5
                                       9.504178996162932e-1,   // deg 7
                                       2.097847961257068e0};   // deg 9
constexpr double kTheta13 = 5.371920351148152;

// b coefficients of the degree 3/5/7/9 approximants.
const std::array<std::vector<double>, 4> kB{
    std::vector<double>{120, 60, 12, 1},
    std::vector<double>{30240, 15120, 3360, 420, 30, 1},
    std::vector<double>{17297280, 8648640, 1995840, 277200, 25200, 1512, 56,
                        1},
    std::vector<double>{17643225600, 8821612800, 2075673600, 302702400,
                        30270240, 2162160, 110880, 3960, 90, 1}};

constexpr std::array<double, 14> kB13{
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0,  129060195264000.0,   10559470521600.0,
    670442572800.0,      33522128640.0,       1323241920.0,
    40840800.0,          960960.0,            16380.0,
    182.0,               1.0};

}  // namespace

void ExpmWorkspace::set_identity(std::size_t n) {
  eye_.assign_zero(n, n);
  for (std::size_t i = 0; i < n; ++i) eye_(i, i) = 1.0;
}

void ExpmWorkspace::pade_solve(bool first_column_only) {
  const std::size_t n = u_.rows();
  // den = V - U, num = V + U.
  tmp_ = v_;
  tmp_.add_scaled(-1.0, u_);
  lu_.factorize(tmp_);
  if (first_column_only) {
    col_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      col_[i] = v_(i, 0);
      col_[i] += 1.0 * u_(i, 0);
    }
    lu_.solve_in_place(col_);
    return;
  }
  r_ = v_;
  r_.add_scaled(1.0, u_);
  for (std::size_t j = 0; j < n; ++j) lu_.solve_in_place(r_.col(j));
}

void ExpmWorkspace::low_degree(int degree, bool first_column_only) {
  const std::vector<double>& b = kB[static_cast<std::size_t>(degree)];
  const std::size_t n = at_.rows();
  set_identity(n);
  a2_.assign_product(at_, at_);
  // U = A * (sum over odd coefficients), V = sum over even coefficients,
  // built with Horner's scheme in A^2.
  u_.assign_zero(n, n);
  v_.assign_zero(n, n);
  apow_ = eye_;
  u_.add_scaled(b[1], apow_);
  v_.add_scaled(b[0], apow_);
  for (std::size_t k = 2; k < b.size(); k += 2) {
    tmp_.assign_product(apow_, a2_);
    std::swap(apow_, tmp_);
    if (k + 1 < b.size()) u_.add_scaled(b[k + 1], apow_);
    v_.add_scaled(b[k], apow_);
  }
  tmp_.assign_product(at_, u_);
  std::swap(u_, tmp_);
  pade_solve(first_column_only);
}

void ExpmWorkspace::pade13(bool first_column_only) {
  const auto& b = kB13;
  const std::size_t n = at_.rows();
  set_identity(n);
  a2_.assign_product(at_, at_);
  a4_.assign_product(a2_, a2_);
  a6_.assign_product(a2_, a4_);

  tmp_.assign_zero(n, n);
  tmp_.add_scaled(b[13], a6_);
  tmp_.add_scaled(b[11], a4_);
  tmp_.add_scaled(b[9], a2_);
  u_.assign_product(a6_, tmp_);
  u_.add_scaled(b[7], a6_);
  u_.add_scaled(b[5], a4_);
  u_.add_scaled(b[3], a2_);
  u_.add_scaled(b[1], eye_);
  tmp_.assign_product(at_, u_);
  std::swap(u_, tmp_);

  tmp_.assign_zero(n, n);
  tmp_.add_scaled(b[12], a6_);
  tmp_.add_scaled(b[10], a4_);
  tmp_.add_scaled(b[8], a2_);
  v_.assign_product(a6_, tmp_);
  v_.add_scaled(b[6], a6_);
  v_.add_scaled(b[4], a4_);
  v_.add_scaled(b[2], a2_);
  v_.add_scaled(b[0], eye_);

  pade_solve(first_column_only);
}

void ExpmWorkspace::compute(const DenseMatrix& a, double t,
                            bool first_column_only,
                            std::span<const double> f, double* hump) {
  MATEX_CHECK(a.rows() == a.cols(), "expm requires a square matrix");
  const std::size_t n = a.rows();
  if (hump) *hump = 0.0;
  if (n == 0) {
    r_.assign_zero(0, 0);
    col_.clear();
    return;
  }
  at_ = a;
  at_.scale(t);
  const double nrm = at_.norm1();
  // |f' e e_1| (|e_{m,1}| without f) of a stage whose column 0 is c0.
  const auto sample = [&](const double* c0) {
    if (f.empty()) return std::abs(c0[n - 1]);
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += f[i] * c0[i];
    return std::abs(s);
  };
  const auto column0 = [&] {
    return first_column_only ? col_.data() : r_.data().data();
  };

  for (int d = 0; d < 4; ++d)
    if (nrm <= kTheta[static_cast<std::size_t>(d)]) {
      low_degree(d, first_column_only);
      if (hump) *hump = sample(column0());
      return;
    }

  // Scaling and squaring with degree-13 Pade.
  int s = 0;
  double scaled = nrm;
  while (scaled > kTheta13) {
    scaled *= 0.5;
    ++s;
  }
  at_.scale(std::ldexp(1.0, -s));
  pade13(first_column_only && s == 0);
  if (hump) *hump = sample(s == 0 ? column0() : r_.data().data());
  for (int i = 0; i < s; ++i) {
    if (first_column_only && i + 1 == s) {
      col_.resize(n);
      r_.multiply(r_.col(0), col_);
    } else {
      tmp_.assign_product(r_, r_);
      std::swap(r_, tmp_);
    }
    if (hump) *hump = std::max(*hump, sample(i + 1 == s ? column0()
                                                        : r_.data().data()));
  }
}

const DenseMatrix& ExpmWorkspace::full(const DenseMatrix& a, double t) {
  compute(a, t, false, {}, nullptr);
  return r_;
}

std::span<const double> ExpmWorkspace::e1(const DenseMatrix& a, double t) {
  compute(a, t, true, {}, nullptr);
  return col_;
}

std::span<const double> ExpmWorkspace::e1_hump(const DenseMatrix& a,
                                               double t,
                                               std::span<const double> f,
                                               double& hump) {
  MATEX_CHECK(f.empty() || f.size() == a.rows(),
              "functional dimension mismatch");
  compute(a, t, true, f, &hump);
  return col_;
}

DenseMatrix expm(const DenseMatrix& a) { return expm(a, 1.0); }

DenseMatrix expm(const DenseMatrix& a, double t) {
  ExpmWorkspace ws;
  return ws.full(a, t);
}

std::vector<double> expm_e1(const DenseMatrix& a, double t) {
  ExpmWorkspace ws;
  const auto w = ws.e1(a, t);
  return std::vector<double>(w.begin(), w.end());
}

std::vector<double> expm_apply(const DenseMatrix& a, double t,
                               std::span<const double> x) {
  const DenseMatrix e = expm(a, t);
  std::vector<double> y(e.rows());
  e.multiply(x, y);
  return y;
}

ExpmE1Hump expm_e1_hump(const DenseMatrix& a, double t) {
  return expm_e1_hump(a, t, {});
}

ExpmE1Hump expm_e1_hump(const DenseMatrix& a, double t,
                        std::span<const double> f) {
  MATEX_CHECK(f.empty() || f.size() == a.rows(),
              "functional dimension mismatch");
  ExpmWorkspace ws;
  ExpmE1Hump out;
  const auto w = ws.e1_hump(a, t, f, out.hump_last_entry);
  out.w.assign(w.begin(), w.end());
  return out;
}

}  // namespace matex::la
