// Parameterized linear-algebra properties across matrix sizes and both
// table-backed fields: the identities Gaussian elimination must satisfy,
// which the Theorem-1 certification (rank of C_H) silently relies on.

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "gf/linalg.hpp"
#include "gf/matrix.hpp"
#include "support/gf256.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

struct la_param {
  std::size_t n;
  std::uint64_t seed;
};

class LinalgProperty : public ::testing::TestWithParam<la_param> {};

TEST_P(LinalgProperty, RankBoundsAndProductRank) {
  const auto [n, seed] = GetParam();
  rng rand(seed);
  const auto a = matrix<gf2_16>::random(n, n + 2, rand);
  const auto b = matrix<gf2_16>::random(n + 2, n, rand);
  const std::size_t ra = rank(a);
  const std::size_t rb = rank(b);
  EXPECT_LE(ra, n);
  EXPECT_LE(rb, n);
  EXPECT_LE(rank(a * b), std::min(ra, rb));
}

TEST_P(LinalgProperty, InverseOfProduct) {
  const auto [n, seed] = GetParam();
  rng rand(seed ^ 0x1);
  const auto a = matrix<gf2_16>::random(n, n, rand);
  const auto b = matrix<gf2_16>::random(n, n, rand);
  const auto ia = inverse(a);
  const auto ib = inverse(b);
  if (!ia || !ib) GTEST_SKIP() << "singular draw (~n/2^16 chance)";
  const auto iab = inverse(a * b);
  ASSERT_TRUE(iab.has_value());
  EXPECT_EQ(*iab, *ib * *ia);
}

TEST_P(LinalgProperty, RankRowColumnSymmetry) {
  const auto [n, seed] = GetParam();
  rng rand(seed ^ 0x2);
  auto a = matrix<gf2_16>::random(n, 2 * n, rand);
  // Zero a couple of rows to force deficiency.
  for (std::size_t c = 0; c < a.cols(); ++c) a.at(0, c) = 0;
  EXPECT_EQ(rank(a), rank(a.transpose()));
  EXPECT_LE(rank(a), n - 1);
}

TEST_P(LinalgProperty, DeterminantOfIdentityAndScaling) {
  const auto [n, seed] = GetParam();
  rng rand(seed ^ 0x3);
  EXPECT_EQ(determinant(matrix<gf2_16>::identity(n)), 1);
  // Scaling one row by s multiplies det by s.
  auto a = matrix<gf2_16>::random(n, n, rand);
  const auto d = determinant(a);
  const auto s = static_cast<gf2_16::value_type>(2 + rand.below(65534));
  for (std::size_t c = 0; c < n; ++c) a.at(0, c) = gf2_16::mul(a.at(0, c), s);
  EXPECT_EQ(determinant(a), gf2_16::mul(d, s));
}

TEST_P(LinalgProperty, SolveLeftConsistency) {
  const auto [n, seed] = GetParam();
  rng rand(seed ^ 0x4);
  const auto a = matrix<gf256>::random(n, n + 3, rand);
  std::vector<gf256::value_type> x(n);
  for (auto& v : x) v = static_cast<gf256::value_type>(rand.below(256));
  std::vector<gf256::value_type> b(n + 3, 0);
  for (std::size_t c = 0; c < b.size(); ++c)
    for (std::size_t r = 0; r < n; ++r)
      b[c] = gf256::add(b[c], gf256::mul(x[r], a.at(r, c)));
  const auto sol = solve_left(a, b);
  ASSERT_TRUE(sol.has_value());
  std::vector<gf256::value_type> b2(b.size(), 0);
  for (std::size_t c = 0; c < b.size(); ++c)
    for (std::size_t r = 0; r < n; ++r)
      b2[c] = gf256::add(b2[c], gf256::mul((*sol)[r], a.at(r, c)));
  EXPECT_EQ(b2, b);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LinalgProperty,
    ::testing::Values(la_param{2, 1}, la_param{3, 2}, la_param{4, 3}, la_param{5, 4},
                      la_param{8, 5}, la_param{12, 6}, la_param{16, 7},
                      la_param{24, 8}),
    [](const ::testing::TestParamInfo<la_param>& info) {
      return "n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace nab::gf
