// row_reduce's blocked, row-parallel Gauss-Jordan against a one-pivot-at-a-
// time reference: the RREF of a matrix is unique, so the reduced matrix, the
// pivot columns and the rank must come out byte-identical for every shape,
// panel width and worker count — and the GF counters must not depend on the
// worker count either.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gf/gf2_16.hpp"
#include "gf/linalg.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

using m16 = matrix<gf2_16>;
using word = gf2_16::value_type;

/// The unblocked loop: for each column, the first nonzero row at or below
/// the rank becomes the pivot, is normalized, and is eliminated from every
/// other row (on the row kernels, which tests/gf/test_gf2_16_kernels.cpp
/// pins to the scalar field arithmetic).
std::size_t reference_reduce(m16& m, std::vector<std::size_t>& pivots) {
  std::size_t rank = 0;
  for (std::size_t col = 0; col < m.cols() && rank < m.rows(); ++col) {
    std::size_t p = rank;
    while (p < m.rows() && m.at(p, col) == 0) ++p;
    if (p == m.rows()) continue;
    const std::size_t tail = m.cols() - col;
    std::swap_ranges(m.row_ptr(p) + col, m.row_ptr(p) + m.cols(), m.row_ptr(rank) + col);
    word* prow = m.row_ptr(rank) + col;
    gf2_16::scale(prow, gf2_16::inv(prow[0]), tail);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      word* row = m.row_ptr(r) + col;
      if (r != rank && row[0] != 0) gf2_16::axpy(row, prow, row[0], tail);
    }
    pivots.push_back(col);
    ++rank;
  }
  return rank;
}

/// A random matrix with the shapes elimination has to get right: every
/// `zero_every`-th column zero, and every `dup_every`-th row a combination
/// of two earlier rows (rank deficiency spread through the matrix).
m16 shaped(std::size_t rows, std::size_t cols, std::size_t zero_every,
           std::size_t dup_every, std::uint64_t seed) {
  rng rand(seed);
  m16 m = m16::random(rows, cols, rand);
  if (zero_every != 0)
    for (std::size_t c = 0; c < cols; c += zero_every)
      for (std::size_t r = 0; r < rows; ++r) m.at(r, c) = 0;
  if (dup_every != 0)
    for (std::size_t r = 2; r < rows; r += dup_every) {
      const word a = static_cast<word>(1 + rand.below(65535));
      for (std::size_t c = 0; c < cols; ++c)
        m.at(r, c) = gf2_16::add(m.at(r - 1, c), gf2_16::mul(a, m.at(r - 2, c)));
    }
  return m;
}

struct shape {
  std::size_t rows, cols, zero_every, dup_every;
};

void expect_matches_reference(const shape& s, std::uint64_t seed) {
  const m16 input = shaped(s.rows, s.cols, s.zero_every, s.dup_every, seed);
  m16 expected = input;
  std::vector<std::size_t> expected_pivots;
  const std::size_t expected_rank = reference_reduce(expected, expected_pivots);
  const std::string label = std::to_string(s.rows) + "x" + std::to_string(s.cols) +
                            " panel " + std::to_string(detail::panel_width(s.rows, s.cols));

  std::uint64_t words_at_one = 0;
  for (int jobs : {1, 2, 4}) {
    m16 got = input;
    std::vector<std::size_t> pivots;
    obs::collector col;
    std::size_t rank = 0;
    {
      obs::scoped_collector scope(&col);
      rank = row_reduce(got, &pivots, jobs);
    }
    EXPECT_EQ(rank, expected_rank) << label << " jobs " << jobs;
    EXPECT_EQ(pivots, expected_pivots) << label << " jobs " << jobs;
    EXPECT_TRUE(got == expected) << label << " jobs " << jobs;
    EXPECT_EQ(col.value(obs::counter::gf_rows_eliminated), expected_rank) << label;
    const std::uint64_t words = col.value(obs::counter::gf_axpy_words) +
                                col.value(obs::counter::gf_scale_words);
    if (jobs == 1) words_at_one = words;
    EXPECT_EQ(words, words_at_one) << label << " jobs " << jobs;
  }
}

TEST(LinalgBlocked, PanelWidthIsAFunctionOfTheShapeAlone) {
  EXPECT_EQ(detail::panel_width(8, 8), 1u);
  EXPECT_EQ(detail::panel_width(512, 2047), 1u);
  EXPECT_EQ(detail::panel_width(512, 2048), 32u);
  EXPECT_EQ(detail::panel_width(3968, 4032), 32u);
}

TEST(LinalgBlocked, SmallShapesMatchTheReference) {
  // One pivot per panel: rank-deficient, zero columns, both orientations.
  std::uint64_t seed = 1;
  for (const shape& s : {shape{1, 1, 0, 0}, shape{1, 5, 0, 0}, shape{5, 1, 0, 0},
                         shape{7, 7, 3, 3}, shape{33, 31, 4, 5}, shape{31, 65, 2, 0},
                         shape{96, 40, 0, 4}, shape{64, 64, 1, 0}})
    expect_matches_reference(s, seed++);
}

TEST(LinalgBlocked, PanelBoundariesAndOrientationsMatchTheReference) {
  // Panel width 32 (at least 2^20 words), with column counts on, one past
  // and one short of a panel boundary, rows > cols and cols > rows, zero
  // columns, and rank deficiency; each at 1, 2 and 4 workers, large enough
  // for the trailing update to fan out.
  std::uint64_t seed = 100;
  for (const shape& s : {shape{128, 8192, 0, 0},    // cols > rows, full rank
                         shape{129, 8161, 7, 0},    // 8161 = 255 * 32 + 1
                         shape{127, 8287, 0, 9},    // 8287 = 259 * 32 - 1
                         shape{8192, 128, 5, 0},    // rows > cols
                         shape{8191, 129, 0, 6},    // rows > cols, deficient
                         shape{512, 2048, 3, 4}})   // the panel-width boundary
    expect_matches_reference(s, seed++);
}

TEST(LinalgBlocked, PanelsWithoutPivots) {
  // Whole panels without a pivot (every column zero), then a matrix whose
  // only nonzero columns are every 97th: most panels hold one pivot or none.
  m16 zero(1024, 1024);
  std::vector<std::size_t> pivots;
  EXPECT_EQ(row_reduce(zero, &pivots, 4), 0u);
  EXPECT_TRUE(pivots.empty());
  EXPECT_TRUE(zero == m16(1024, 1024));

  rng rand(7);
  m16 sparse = m16::random(1024, 1030, rand);
  for (std::size_t c = 0; c < sparse.cols(); ++c)
    if (c % 97 != 0)
      for (std::size_t r = 0; r < sparse.rows(); ++r) sparse.at(r, c) = 0;
  m16 expected = sparse;
  std::vector<std::size_t> expected_pivots;
  const std::size_t expected_rank = reference_reduce(expected, expected_pivots);
  EXPECT_EQ(expected_rank, 11u);
  for (int jobs : {1, 4}) {
    m16 got = sparse;
    std::vector<std::size_t> got_pivots;
    EXPECT_EQ(row_reduce(got, &got_pivots, jobs), expected_rank);
    EXPECT_EQ(got_pivots, expected_pivots);
    EXPECT_TRUE(got == expected);
  }
}

TEST(LinalgBlocked, ScatteredPivotRowsMatchTheReference) {
  // A staircase with its rows shuffled: row r leads at column perm[r], so
  // each panel draws its pivots from rows all over the unreduced block and
  // moving them up displaces rows that later pivots still need.
  rng rand(11);
  const std::size_t rows = 1024, cols = 1100;
  std::vector<std::size_t> lead(rows);
  for (std::size_t r = 0; r < rows; ++r) lead[r] = r;
  for (std::size_t r = rows; r > 1; --r) std::swap(lead[r - 1], lead[rand.below(r)]);
  m16 input = m16::random(rows, cols, rand);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < lead[r]; ++c) input.at(r, c) = 0;
  m16 expected = input;
  std::vector<std::size_t> expected_pivots;
  const std::size_t expected_rank = reference_reduce(expected, expected_pivots);
  for (int jobs : {1, 4}) {
    m16 got = input;
    std::vector<std::size_t> pivots;
    EXPECT_EQ(row_reduce(got, &pivots, jobs), expected_rank);
    EXPECT_EQ(pivots, expected_pivots);
    EXPECT_TRUE(got == expected) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace nab::gf
