#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/cg.h"
#include "linalg/csr.h"
#include "util/rng.h"

namespace p3d::linalg {
namespace {

TEST(Csr, FromCooSumsDuplicates) {
  CooBuilder coo(3);
  coo.Add(0, 0, 1.0);
  coo.Add(0, 0, 2.0);
  coo.Add(1, 2, 5.0);
  coo.Add(2, 1, -1.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_EQ(m.Dim(), 3);
  EXPECT_EQ(m.NumNonZeros(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);  // absent
}

TEST(Csr, Multiply) {
  CooBuilder coo(2);
  coo.Add(0, 0, 2.0);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 1, 3.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  std::vector<double> y;
  m.Multiply({1.0, 2.0}, &y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Csr, Diagonal) {
  CooBuilder coo(3);
  coo.Add(0, 0, 4.0);
  coo.Add(2, 2, 9.0);
  coo.Add(0, 1, 7.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  const auto d = m.Diagonal();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 9.0);
}

TEST(Csr, SymmetryError) {
  CooBuilder coo(2);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.5);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_NEAR(m.SymmetryError(), 0.5, 1e-15);
}

TEST(Cg, SolvesSmallSpdSystem) {
  // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
  CooBuilder coo(2);
  coo.Add(0, 0, 4.0);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 1, 3.0);
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  std::vector<double> x;
  const CgResult r = SolveCg(a, {1.0, 2.0}, &x);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-8);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-8);
}

TEST(Cg, ZeroRhsGivesZero) {
  CooBuilder coo(2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, 1.0);
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  std::vector<double> x = {5.0, -2.0};  // nonzero initial guess
  const CgResult r = SolveCg(a, {0.0, 0.0}, &x);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

/// 1D Laplacian with Dirichlet-like end anchors: classic SPD test with a
/// known solution structure.
TEST(Cg, OneDimensionalLaplacian) {
  const int n = 50;
  CooBuilder coo(n);
  for (int i = 0; i < n; ++i) {
    coo.Add(i, i, 2.0);
    if (i > 0) coo.Add(i, i - 1, -1.0);
    if (i + 1 < n) coo.Add(i, i + 1, -1.0);
  }
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  // b = A * ones -> solution must be ones.
  std::vector<double> ones(n, 1.0), b;
  a.Multiply(ones, &b);
  std::vector<double> x;
  const CgResult r = SolveCg(a, b, &x, {.max_iters = 500, .rel_tolerance = 1e-10});
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], 1.0, 1e-6);
}

class CgRandomSpd : public ::testing::TestWithParam<int> {};

TEST_P(CgRandomSpd, RecoversKnownSolution) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n));
  // SPD by construction: diagonally dominant symmetric matrix.
  CooBuilder coo(n);
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < std::min(n, i + 4); ++j) {
      const double v = rng.NextDouble(-1.0, 1.0);
      coo.Add(i, j, v);
      coo.Add(j, i, v);
      row_abs[static_cast<std::size_t>(i)] += std::abs(v);
      row_abs[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  for (int i = 0; i < n; ++i) {
    coo.Add(i, i, row_abs[static_cast<std::size_t>(i)] + 1.0);
  }
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  EXPECT_LT(a.SymmetryError(), 1e-14);

  std::vector<double> truth(static_cast<std::size_t>(n));
  for (auto& v : truth) v = rng.NextDouble(-10.0, 10.0);
  std::vector<double> b;
  a.Multiply(truth, &b);
  std::vector<double> x;
  const CgResult r = SolveCg(a, b, &x, {.max_iters = 2000, .rel_tolerance = 1e-12});
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                truth[static_cast<std::size_t>(i)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgRandomSpd, ::testing::Values(5, 20, 100, 400));


/// 2D Laplacian (5-point stencil) on an nx * ny grid: the same structure as
/// the FEA thermal matrices, where IC(0) is meant to earn its keep.
CsrMatrix Laplacian2d(int nx, int ny) {
  CooBuilder coo(nx * ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const int at = j * nx + i;
      coo.Add(at, at, 4.0 + 1e-3);  // small shift keeps it SPD
      if (i > 0) coo.Add(at, at - 1, -1.0);
      if (i + 1 < nx) coo.Add(at, at + 1, -1.0);
      if (j > 0) coo.Add(at, at - nx, -1.0);
      if (j + 1 < ny) coo.Add(at, at + nx, -1.0);
    }
  }
  return CsrMatrix::FromCoo(coo);
}

TEST(CgIc0, ConvergesAndBeatsJacobiOnLaplacian) {
  const CsrMatrix a = Laplacian2d(24, 24);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim()), 0.0);
  util::Rng rng(7);
  for (auto& v : truth) v = rng.NextDouble(-1.0, 1.0);
  std::vector<double> b;
  a.Multiply(truth, &b);

  CgOptions opt;
  opt.rel_tolerance = 1e-10;
  std::vector<double> x_j;
  opt.preconditioner = PreconditionerKind::kJacobi;
  const CgResult rj = SolveCg(a, b, &x_j, opt);
  std::vector<double> x_ic;
  opt.preconditioner = PreconditionerKind::kIc0;
  const CgResult ric = SolveCg(a, b, &x_ic, opt);

  ASSERT_TRUE(rj.converged);
  ASSERT_TRUE(ric.converged);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(x_j[i], truth[i], 1e-6);
    EXPECT_NEAR(x_ic[i], truth[i], 1e-6);
  }
  // The point of IC(0): materially fewer iterations than Jacobi.
  EXPECT_LT(ric.iters, rj.iters);
}

TEST(CgIc0, CleanFactorNeedsNoShift) {
  const CsrMatrix a = Laplacian2d(8, 8);
  const CgPreconditioner p = CgPreconditioner::Build(a, PreconditionerKind::kIc0);
  EXPECT_EQ(p.kind(), PreconditionerKind::kIc0);
  EXPECT_FALSE(p.empty());
  EXPECT_DOUBLE_EQ(p.ic_shift(), 0.0);
}

TEST(CgIc0, PrebuiltPreconditionerReusesAcrossRhs) {
  const CsrMatrix a = Laplacian2d(16, 16);
  const CgPreconditioner p = CgPreconditioner::Build(a, PreconditionerKind::kIc0);
  util::Rng rng(11);
  CgOptions opt;
  opt.rel_tolerance = 1e-10;
  for (int rhs = 0; rhs < 3; ++rhs) {
    std::vector<double> truth(static_cast<std::size_t>(a.Dim()));
    for (auto& v : truth) v = rng.NextDouble(-5.0, 5.0);
    std::vector<double> b;
    a.Multiply(truth, &b);
    std::vector<double> x;
    const CgResult r = SolveCgPreconditioned(a, p, b, &x, opt);
    ASSERT_TRUE(r.converged) << "rhs " << rhs;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_NEAR(x[i], truth[i], 1e-6);
    }
  }
}

TEST(CgIc0, WarmStartFromSolutionExitsImmediately) {
  const CsrMatrix a = Laplacian2d(12, 12);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim()), 1.0), b;
  a.Multiply(truth, &b);
  CgOptions opt;
  opt.preconditioner = PreconditionerKind::kIc0;
  std::vector<double> x;
  const CgResult cold = SolveCg(a, b, &x, opt);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.iters, 0);
  // Seeding with the previous solution: the initial residual is already
  // below tolerance, so the solve must early-exit without iterating.
  const CgResult warm = SolveCg(a, b, &x, opt);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iters, 0);
}

TEST(CgIc0, MatchesJacobiBitwiseAcrossThreadCounts) {
  // The determinism contract: for a fixed preconditioner, the solution bytes
  // do not depend on the thread count.
  const CsrMatrix a = Laplacian2d(10, 14);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim())), b;
  util::Rng rng(3);
  for (auto& v : truth) v = rng.NextDouble(-2.0, 2.0);
  a.Multiply(truth, &b);
  for (const PreconditionerKind kind :
       {PreconditionerKind::kJacobi, PreconditionerKind::kIc0}) {
    CgOptions opt;
    opt.preconditioner = kind;
    opt.threads = 1;
    std::vector<double> x1;
    const CgResult r1 = SolveCg(a, b, &x1, opt);
    opt.threads = 4;
    std::vector<double> x4;
    const CgResult r4 = SolveCg(a, b, &x4, opt);
    ASSERT_TRUE(r1.converged);
    EXPECT_EQ(r1.iters, r4.iters);
    for (std::size_t i = 0; i < x1.size(); ++i) {
      EXPECT_EQ(x1[i], x4[i]) << PreconditionerName(kind) << " row " << i;
    }
  }
}

}  // namespace
}  // namespace p3d::linalg
