#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "gf/matrix.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"

namespace nab::gf {

namespace detail {

/// Fields may expose batched row kernels (axpy: dst += coeff*src, scale:
/// v *= coeff) that hoist the scalar's table lookup out of the loop —
/// gf2_16 does. Elimination dispatches to them when present.
template <class F>
concept has_row_kernels = requires(typename F::value_type* d,
                                   const typename F::value_type* s,
                                   typename F::value_type c, std::size_t n) {
  F::axpy(d, s, c, n);
  F::scale(d, c, n);
};

template <class F>
void row_axpy(typename F::value_type* dst, const typename F::value_type* src,
              typename F::value_type coeff, std::size_t n) {
  if constexpr (has_row_kernels<F>) {
    F::axpy(dst, src, coeff, n);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = F::add(dst[i], F::mul(coeff, src[i]));
  }
}

template <class F>
void row_scale(typename F::value_type* v, typename F::value_type coeff,
               std::size_t n) {
  if constexpr (has_row_kernels<F>) {
    F::scale(v, coeff, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) v[i] = F::mul(v[i], coeff);
  }
}

/// Panel width of row_reduce's blocked elimination: a fixed function of the
/// shape, never of the worker count or the CPU, so a matrix always takes the
/// same arithmetic path. Matrices under 2^20 words (2 MiB) keep one pivot
/// per panel — the plain Gauss-Jordan loop, word for word — because a wider
/// panel only pays once the matrix stops fitting in a core's cache.
inline std::size_t panel_width(std::size_t rows, std::size_t cols) {
  return rows * cols >= (std::size_t{1} << 20) ? 32 : 1;
}

}  // namespace detail

/// In-place Gauss-Jordan reduction to reduced row echelon form. Returns the
/// rank; `pivot_cols`, if non-null, receives the pivot column of each
/// nonzero row. Rows [0, rank) end up as the RREF rows in pivot order, the
/// rest as zero rows.
///
/// Blocked, right-looking elimination over panels of detail::panel_width
/// columns:
///  - Panel: the unreduced rows' entries on the panel columns are copied
///    into a narrow slab, where the panel's pivots are found by a lazy
///    scalar elimination (a row is brought up to date only when examined).
///  - The chosen pivot rows move up to [rank, rank + b) and are reduced to
///    RREF among themselves over full width.
///  - Trailing update: every other row, above and below, takes
///    row += row[c_k] * F_k over the panel's pivot rows F_k, so each row is
///    read and written once per panel while the b pivot rows stay in cache.
///    With jobs > 1 the rows are fanned out over
///    runtime::parallel_for_each_index.
/// The RREF of a matrix is unique, so the result is byte-identical for any
/// panel width and worker count. The update's kernel words are charged on
/// the calling thread, so the GF counters are the same for every `jobs`.
template <class F>
std::size_t row_reduce(matrix<F>& m, std::vector<std::size_t>* pivot_cols = nullptr,
                       int jobs = 1) {
  using V = typename F::value_type;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  const std::size_t width = detail::panel_width(rows, cols);
  // Below this many words a panel's trailing update runs inline: starting
  // threads (~0.1-0.3 ms) would cost more than they save.
  constexpr std::size_t fan_out_words = std::size_t{1} << 23;
  constexpr std::size_t unloaded = static_cast<std::size_t>(-1);

  std::vector<V> slab;            // unreduced rows x panel columns
  std::vector<std::size_t> src;   // slab row -> matrix row
  std::vector<std::size_t> seen;  // slab row -> panel pivots applied to it
  std::vector<std::size_t> piv;   // the panel's pivot columns (absolute)
  std::size_t rank = 0;
  for (std::size_t c0 = 0; c0 < cols && rank < rows; c0 += width) {
    const std::size_t w = std::min(width, cols - c0);
    const std::size_t low = rows - rank;
    slab.resize(low * w);
    src.resize(low);
    std::iota(src.begin(), src.end(), rank);
    seen.assign(low, unloaded);

    // 1. Panel: slab rows [0, b) are the pivots found so far, in echelon
    //    form with unit leading entries. A row is copied into the slab only
    //    when first examined, so a dense column costs one row, not all.
    piv.clear();
    for (std::size_t j = 0; j < w && piv.size() < low; ++j) {
      const std::size_t b = piv.size();
      std::size_t p = b;
      for (; p < low; ++p) {
        V* row = slab.data() + p * w;
        if (seen[p] == unloaded) {
          std::copy_n(m.row_ptr(src[p]) + c0, w, row);
          seen[p] = 0;
        }
        for (; seen[p] < b; ++seen[p]) {
          const V* prow = slab.data() + seen[p] * w;
          const std::size_t pc = piv[seen[p]] - c0;
          const V a = row[pc];
          if (a == F::zero()) continue;
          for (std::size_t c = pc; c < w; ++c)
            row[c] = F::sub(row[c], F::mul(a, prow[c]));
        }
        if (row[j] != F::zero()) break;
      }
      if (p == low) continue;  // no pivot in this column
      if (p != b) {
        std::swap_ranges(slab.data() + p * w, slab.data() + (p + 1) * w,
                         slab.data() + b * w);
        std::swap(src[p], src[b]);
        std::swap(seen[p], seen[b]);
      }
      V* prow = slab.data() + b * w;
      const V inv = F::inv(prow[j]);
      for (std::size_t c = j; c < w; ++c) prow[c] = F::mul(prow[c], inv);
      piv.push_back(c0 + j);
    }
    const std::size_t b = piv.size();
    if (b == 0) continue;

    // 2. Move the pivot rows to [rank, rank + b). Unreduced rows are zero
    //    left of c0, so only their tails need swapping; a later pivot row
    //    displaced by a swap is followed to its new place.
    for (std::size_t k = 0; k < b; ++k) {
      const std::size_t t = rank + k;
      const std::size_t s = src[k];
      if (s == t) continue;
      std::swap_ranges(m.row_ptr(s) + c0, m.row_ptr(s) + cols, m.row_ptr(t) + c0);
      for (std::size_t j = k + 1; j < b; ++j)
        if (src[j] == t) src[j] = s;
    }

    //    Reduce them to RREF among themselves: forward to unit echelon
    //    form, then back-substitute.
    const std::size_t first = piv.front();
    const std::size_t tail = cols - first;
    const auto pivot_row = [&](std::size_t k) { return m.row_ptr(rank + k) + first; };
    for (std::size_t k = 0; k < b; ++k) {
      V* row = pivot_row(k);
      for (std::size_t j = 0; j < k; ++j) {
        const V a = row[piv[j] - first];
        if (a != F::zero()) detail::row_axpy<F>(row, pivot_row(j), F::neg(a), tail);
      }
      detail::row_scale<F>(row, F::inv(row[piv[k] - first]), tail);
    }
    for (std::size_t k = b - 1; k-- > 0;) {
      V* row = pivot_row(k);
      for (std::size_t j = k + 1; j < b; ++j) {
        const V a = row[piv[j] - first];
        if (a != F::zero()) detail::row_axpy<F>(row, pivot_row(j), F::neg(a), tail);
      }
    }

    // 3. Trailing update of every other row, in row chunks.
    const auto update = [&](std::size_t lo, std::size_t hi) {
      std::uint64_t words = 0;
      for (std::size_t r = lo; r < hi; ++r) {
        if (r >= rank && r < rank + b) continue;
        V* row = m.row_ptr(r) + first;
        for (std::size_t k = 0; k < b; ++k) {
          const V a = row[piv[k] - first];
          if (a == F::zero()) continue;
          detail::row_axpy<F>(row, pivot_row(k), F::neg(a), tail);
          words += tail;
        }
      }
      return words;
    };
    if (jobs <= 1 || rows * b * tail < fan_out_words) {
      update(0, rows);
    } else {
      const std::size_t chunks = std::min(rows, 4 * static_cast<std::size_t>(jobs));
      std::vector<std::uint64_t> words(chunks, 0);
      runtime::parallel_for_each_index(jobs, chunks, [&](std::size_t c) {
        // Workers have no ambient collector (and a chunk may run inline on
        // this thread): count nothing there, and charge below the words the
        // kernels were presented — what the inline path counts. Fields
        // without row kernels count nothing on either path.
        obs::scoped_collector mute(nullptr);
        words[c] = update(rows * c / chunks, rows * (c + 1) / chunks);
      });
      if constexpr (detail::has_row_kernels<F>) {
        std::uint64_t total = 0;
        for (std::uint64_t n : words) total += n;
        obs::count(obs::counter::gf_axpy_words, total);
      }
    }

    if (pivot_cols != nullptr) pivot_cols->insert(pivot_cols->end(), piv.begin(), piv.end());
    rank += b;
  }
  obs::count(obs::counter::gf_rows_eliminated, rank);
  return rank;
}

/// Rank of a matrix (operates on a copy).
template <class F>
std::size_t rank(matrix<F> m) {
  return row_reduce(m);
}

/// Inverse of a square matrix, or nullopt if singular.
template <class F>
std::optional<matrix<F>> inverse(const matrix<F>& m) {
  NAB_ASSERT(m.rows() == m.cols(), "inverse requires a square matrix");
  const std::size_t n = m.rows();
  auto aug = matrix<F>::hconcat(m, matrix<F>::identity(n));
  std::vector<std::size_t> pivots;
  row_reduce(aug, &pivots);
  // Invertible iff the left block is full-rank, i.e. all pivots land in it
  // (the identity block always brings the augmented rank up to n).
  if (pivots.size() < n || pivots[n - 1] >= n) return std::nullopt;
  matrix<F> out(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out.at(r, c) = aug.at(r, n + c);
  return out;
}

/// Determinant of a square matrix. In characteristic 2 row swaps do not flip
/// the sign, so plain elimination with pivot-product suffices.
template <class F>
typename F::value_type determinant(matrix<F> m) {
  NAB_ASSERT(m.rows() == m.cols(), "determinant requires a square matrix");
  using V = typename F::value_type;
  const std::size_t n = m.rows();
  V det = F::one();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && m.at(pivot, col) == F::zero()) ++pivot;
    if (pivot == n) return F::zero();
    if (pivot != col)
      for (std::size_t c = col; c < n; ++c) std::swap(m.at(pivot, c), m.at(col, c));
    det = F::mul(det, m.at(col, col));
    const V scale = F::inv(m.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const V factor = F::mul(m.at(r, col), scale);
      if (factor == F::zero()) continue;
      for (std::size_t c = col; c < n; ++c)
        m.at(r, c) = F::sub(m.at(r, c), F::mul(factor, m.at(col, c)));
    }
  }
  return det;
}

/// True iff a square matrix is invertible.
template <class F>
bool invertible(const matrix<F>& m) {
  return m.rows() == m.cols() && rank(m) == m.rows();
}

/// Solves x * A = b for a row vector x (the orientation used by the paper's
/// check D_H * C_H = 0). Returns nullopt if no solution exists.
template <class F>
std::optional<std::vector<typename F::value_type>> solve_left(
    const matrix<F>& a, const std::vector<typename F::value_type>& b) {
  NAB_ASSERT(b.size() == a.cols(), "solve_left dimension mismatch");
  // x * A = b  <=>  A^T * x^T = b^T.
  auto at = a.transpose();
  matrix<F> rhs(b.size(), 1);
  for (std::size_t i = 0; i < b.size(); ++i) rhs.at(i, 0) = b[i];
  auto aug = matrix<F>::hconcat(at, rhs);
  std::vector<std::size_t> pivots;
  const std::size_t r = row_reduce(aug, &pivots);
  // Inconsistent if a pivot lands in the rhs column.
  for (std::size_t i = 0; i < pivots.size(); ++i)
    if (pivots[i] == at.cols()) return std::nullopt;
  std::vector<typename F::value_type> x(at.cols(), F::zero());
  for (std::size_t i = 0; i < r; ++i)
    if (pivots[i] < at.cols()) x[pivots[i]] = aug.at(i, at.cols());
  return x;
}

}  // namespace nab::gf
