#include "gf/linalg.hpp"

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "support/gf256.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

using m16 = matrix<gf2_16>;

TEST(Linalg, RankOfIdentity) {
  EXPECT_EQ(rank(m16::identity(6)), 6u);
}

TEST(Linalg, RankOfZeroMatrix) {
  EXPECT_EQ(rank(m16(4, 7)), 0u);
}

TEST(Linalg, RankDropsWithDuplicateRow) {
  rng rand(1);
  auto a = m16::random(4, 6, rand);
  // Force row 3 = row 1.
  for (std::size_t c = 0; c < 6; ++c) a.at(3, c) = a.at(1, c);
  EXPECT_LE(rank(a), 3u);
}

TEST(Linalg, RandomSquareMatrixIsAlmostSurelyInvertible) {
  // Probability of singularity for a random k x k matrix over GF(2^16) is
  // ~ k / 2^16 — the same estimate Theorem 1 builds on.
  rng rand(2);
  int invertible_count = 0;
  for (int trial = 0; trial < 50; ++trial) {
    if (invertible(m16::random(8, 8, rand))) ++invertible_count;
  }
  EXPECT_GE(invertible_count, 49);
}

TEST(Linalg, InverseRoundTrip) {
  rng rand(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = m16::random(6, 6, rand);
    const auto ainv = inverse(a);
    if (!ainv) continue;  // singular draw — astronomically unlikely
    EXPECT_EQ(a * *ainv, m16::identity(6));
    EXPECT_EQ(*ainv * a, m16::identity(6));
  }
}

TEST(Linalg, InverseOfSingularIsNullopt) {
  m16 a(3, 3);  // zero matrix
  EXPECT_FALSE(inverse(a).has_value());

  rng rand(4);
  auto b = m16::random(3, 3, rand);
  for (std::size_t c = 0; c < 3; ++c) b.at(2, c) = gf2_16::add(b.at(0, c), b.at(1, c));
  EXPECT_FALSE(inverse(b).has_value());
}

TEST(Linalg, DeterminantZeroIffSingular) {
  rng rand(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = m16::random(5, 5, rand);
    EXPECT_EQ(determinant(a) != 0, invertible(a));
  }
}

TEST(Linalg, DeterminantIsMultiplicative) {
  rng rand(6);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = m16::random(4, 4, rand);
    const auto b = m16::random(4, 4, rand);
    EXPECT_EQ(determinant(a * b), gf2_16::mul(determinant(a), determinant(b)));
  }
}

TEST(Linalg, RowReduceReportsPivots) {
  auto a = m16::identity(3);
  std::vector<std::size_t> pivots;
  EXPECT_EQ(row_reduce(a, &pivots), 3u);
  EXPECT_EQ(pivots, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Linalg, SolveLeftRecoversVector) {
  rng rand(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = m16::random(5, 8, rand);
    std::vector<gf2_16::value_type> x(5);
    for (auto& v : x) v = static_cast<gf2_16::value_type>(rand.below(65536));
    // b = x * A.
    std::vector<gf2_16::value_type> b(8, 0);
    for (std::size_t c = 0; c < 8; ++c)
      for (std::size_t r = 0; r < 5; ++r)
        b[c] = gf2_16::add(b[c], gf2_16::mul(x[r], a.at(r, c)));
    const auto sol = solve_left(a, b);
    ASSERT_TRUE(sol.has_value());
    // The solution must reproduce b (A may have a nontrivial left kernel, so
    // compare images, not coordinates).
    std::vector<gf2_16::value_type> b2(8, 0);
    for (std::size_t c = 0; c < 8; ++c)
      for (std::size_t r = 0; r < 5; ++r)
        b2[c] = gf2_16::add(b2[c], gf2_16::mul((*sol)[r], a.at(r, c)));
    EXPECT_EQ(b2, b);
  }
}

TEST(Linalg, SolveLeftDetectsInconsistency) {
  // A = zero matrix, b nonzero: no solution.
  m16 a(3, 4);
  std::vector<gf2_16::value_type> b(4, 1);
  EXPECT_FALSE(solve_left(a, b).has_value());
}

TEST(Linalg, RankIsInvariantUnderTranspose) {
  rng rand(8);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = m16::random(4, 9, rand);
    EXPECT_EQ(rank(a), rank(a.transpose()));
  }
}

}  // namespace
}  // namespace nab::gf
