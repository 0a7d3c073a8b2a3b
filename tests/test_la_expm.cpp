#include "la/expm.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "la/dense_matrix.hpp"
#include "la/vector_ops.hpp"
#include "test_util.hpp"

namespace matex::la {
namespace {

TEST(Expm, OfZeroMatrixIsIdentity) {
  DenseMatrix z(4, 4);
  EXPECT_LE(max_abs_diff(expm(z), DenseMatrix::identity(4)), 1e-15);
}

TEST(Expm, OfDiagonalMatrixExponentiatesDiagonal) {
  DenseMatrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = -2.0;
  d(2, 2) = 0.5;
  const auto e = expm(d);
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-13);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-13);
  EXPECT_NEAR(e(2, 2), std::exp(0.5), 1e-13);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-14);
  EXPECT_NEAR(e(1, 2), 0.0, 1e-14);
}

TEST(Expm, NilpotentMatrixMatchesTruncatedSeries) {
  // N = [[0,1],[0,0]] is nilpotent: e^N = I + N exactly.
  DenseMatrix n(2, 2);
  n(0, 1) = 1.0;
  const auto e = expm(n);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-15);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-15);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-15);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-15);
}

TEST(Expm, RotationMatrixGivesSineCosine) {
  // A = [[0,-w],[w,0]] -> e^A = [[cos w, -sin w],[sin w, cos w]].
  const double w = 1.3;
  DenseMatrix a(2, 2);
  a(0, 1) = -w;
  a(1, 0) = w;
  const auto e = expm(a);
  EXPECT_NEAR(e(0, 0), std::cos(w), 1e-13);
  EXPECT_NEAR(e(0, 1), -std::sin(w), 1e-13);
  EXPECT_NEAR(e(1, 0), std::sin(w), 1e-13);
  EXPECT_NEAR(e(1, 1), std::cos(w), 1e-13);
}

TEST(Expm, LargeNormTriggersScalingAndStaysAccurate) {
  // 2x2 with known closed form: A = [[-a, 0],[0, -b]] scaled hugely.
  DenseMatrix a(2, 2);
  a(0, 0) = -50.0;
  a(1, 1) = -80.0;
  const auto e = expm(a);
  EXPECT_NEAR(e(0, 0), std::exp(-50.0), 1e-13 * std::exp(-50.0) + 1e-30);
  EXPECT_NEAR(e(1, 1), std::exp(-80.0), 1e-13 * std::exp(-80.0) + 1e-30);
}

TEST(Expm, TimeScalingOverload) {
  testing::Rng rng(11);
  const auto a = testing::random_dense(5, rng);
  EXPECT_LE(max_abs_diff(expm(a, 0.25), expm(a.scaled(0.25))), 1e-14);
}

TEST(Expm, E1ExtractsFirstColumn) {
  testing::Rng rng(12);
  const auto a = testing::random_dense(6, rng);
  const auto full = expm(a, 0.7);
  const auto c = expm_e1(a, 0.7);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(c[i], full(i, 0));
}

TEST(Expm, ApplyMatchesFullExponential) {
  testing::Rng rng(13);
  const auto a = testing::random_dense(7, rng);
  const auto x = testing::random_vector(7, rng);
  const auto y = expm_apply(a, 0.3, x);
  std::vector<double> yref(7);
  expm(a, 0.3).multiply(x, yref);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(y[i], yref[i], 1e-13);
}

TEST(ExpmWorkspace, FirstColumnIsBitwiseTheFullExponentialsColumn) {
  // Norms that select each Pade degree (3/5/7/9), degree 13 without
  // squaring, and the scaling-and-squaring path. The workspace forms only
  // column 0 at its last stage; that column must equal column 0 of the
  // full exponential bit for bit, and reusing one workspace across orders
  // must not change a bit either.
  testing::Rng rng(31);
  ExpmWorkspace ws;
  for (const std::size_t n : {7u, 3u, 9u})
    for (const double target : {0.01, 0.2, 0.9, 2.0, 5.0, 12.0, 90.0}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " norm " << target);
      const auto base = testing::random_dense(n, rng);
      const DenseMatrix a = base.scaled(target / base.norm1());
      for (const double t : {1.0, 0.37}) {
        const DenseMatrix full = expm(a, t);
        const auto e1 = ws.e1(a, t);
        ASSERT_EQ(e1.size(), n);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(e1[i], full(i, 0));
        const auto legacy = expm_e1(a, t);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(legacy[i], full(i, 0));
        const DenseMatrix& again = ws.full(a, t);
        for (std::size_t i = 0; i < n * n; ++i)
          EXPECT_EQ(again.data()[i], full.data()[i]);

        const auto f = testing::random_vector(n, rng);
        double hump = -1.0;
        const auto w = ws.e1_hump(a, t, f, hump);
        double fw = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(w[i], full(i, 0));
          fw += f[i] * w[i];
        }
        // The hump samples every stage, the last one included.
        EXPECT_GE(hump, std::abs(fw));
        const auto legacy_hump = expm_e1_hump(a, t, f);
        EXPECT_EQ(legacy_hump.hump_last_entry, hump);
      }
    }
}

class ExpmPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExpmPropertyTest, GroupProperty) {
  // e^{(s+t)A} == e^{sA} e^{tA}
  testing::Rng rng(GetParam());
  const std::size_t n = 2 + rng.index(12);
  const auto a = testing::random_dense(n, rng);
  const double s = rng.uniform(0.1, 2.0);
  const double t = rng.uniform(0.1, 2.0);
  const auto lhs = expm(a, s + t);
  const auto rhs = expm(a, s).matmul(expm(a, t));
  EXPECT_LE(max_abs_diff(lhs, rhs), 1e-10 * lhs.norm_max() + 1e-12);
}

TEST_P(ExpmPropertyTest, InverseIsExpOfNegated) {
  testing::Rng rng(GetParam() + 500);
  const std::size_t n = 2 + rng.index(10);
  const auto a = testing::random_dense(n, rng);
  const auto prod = expm(a, 1.0).matmul(expm(a, -1.0));
  EXPECT_LE(max_abs_diff(prod, DenseMatrix::identity(n)), 1e-10);
}

TEST_P(ExpmPropertyTest, MatchesTaylorSeriesForSmallNorm) {
  testing::Rng rng(GetParam() + 900);
  const std::size_t n = 2 + rng.index(8);
  auto a = testing::random_dense(n, rng);
  a = a.scaled(0.01);  // small norm: 8-term Taylor is accurate to ~1e-16
  DenseMatrix taylor = DenseMatrix::identity(n);
  DenseMatrix term = DenseMatrix::identity(n);
  for (int k = 1; k <= 8; ++k) {
    term = term.matmul(a).scaled(1.0 / k);
    taylor.add_scaled(1.0, term);
  }
  EXPECT_LE(max_abs_diff(expm(a), taylor), 1e-13);
}

TEST_P(ExpmPropertyTest, SimilarityInvariance) {
  // expm(T^-1 A T) == T^-1 expm(A) T, exercised via diagonal T.
  testing::Rng rng(GetParam() + 1300);
  const std::size_t n = 2 + rng.index(8);
  const auto a = testing::random_dense(n, rng);
  DenseMatrix t(n, n), tinv(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = rng.uniform(0.5, 2.0);
    t(i, i) = d;
    tinv(i, i) = 1.0 / d;
  }
  const auto lhs = expm(tinv.matmul(a).matmul(t));
  const auto rhs = tinv.matmul(expm(a)).matmul(t);
  EXPECT_LE(max_abs_diff(lhs, rhs), 1e-10 * rhs.norm_max() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpmPropertyTest,
                         ::testing::Range<std::size_t>(1, 21));

}  // namespace
}  // namespace matex::la
