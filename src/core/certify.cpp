#include "core/certify.hpp"

#include <algorithm>
#include <cmath>

#include "gf/linalg.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace nab::core {

namespace {

using gfw = gf::gf2_16::value_type;

/// The reduced all-active-blocks matrix and the column bookkeeping every
/// member's downdate reads.
struct reduced_blocks {
  gf::matrix<gf::gf2_16> m;
  std::size_t rank = 0;
  std::vector<int> pivot_row_of;                 // column -> RREF row, or -1
  std::vector<std::size_t> free_cols;            // non-pivot columns, ascending
  std::vector<std::vector<std::size_t>> node_cols;  // node -> incident columns
};

reduced_blocks reduce_all_blocks(const graph::digraph& g,
                                 const std::vector<graph::node_id>& active,
                                 const coding_scheme& coding, int jobs) {
  const std::size_t rho = static_cast<std::size_t>(coding.rho());
  const std::vector<graph::edge> edges = g.edges();
  std::vector<int> pos(static_cast<std::size_t>(g.universe()), -1);
  for (std::size_t i = 0; i < active.size(); ++i)
    pos[static_cast<std::size_t>(active[i])] = static_cast<int>(i);
  std::size_t total_cols = 0;
  for (const graph::edge& e : edges) total_cols += static_cast<std::size_t>(e.cap);

  reduced_blocks out;
  out.m = gf::matrix<gf::gf2_16>(active.size() * rho, total_cols);
  out.node_cols.assign(static_cast<std::size_t>(g.universe()), {});
  std::size_t col = 0;
  for (const graph::edge& e : edges) {
    const auto& ce = coding.matrix_for(e.from, e.to);
    NAB_ASSERT(static_cast<graph::capacity_t>(ce.cols()) == e.cap,
               "coding matrix width must equal edge capacity");
    const int pi = pos[static_cast<std::size_t>(e.from)];
    const int pj = pos[static_cast<std::size_t>(e.to)];
    NAB_ASSERT(pi >= 0 && pj >= 0, "active edge with an inactive endpoint");
    for (std::size_t k = 0; k < ce.cols(); ++k, ++col) {
      out.node_cols[static_cast<std::size_t>(e.from)].push_back(col);
      out.node_cols[static_cast<std::size_t>(e.to)].push_back(col);
      for (std::size_t s = 0; s < rho; ++s) {
        const gfw c = ce.at(s, k);
        out.m.at(static_cast<std::size_t>(pi) * rho + s, col) = c;
        out.m.at(static_cast<std::size_t>(pj) * rho + s, col) = c;
      }
    }
  }

  std::vector<std::size_t> pivot_cols;
  out.rank = gf::row_reduce(out.m, &pivot_cols, jobs);
  out.pivot_row_of.assign(total_cols, -1);
  for (std::size_t i = 0; i < pivot_cols.size(); ++i)
    out.pivot_row_of[pivot_cols[i]] = static_cast<int>(i);
  out.free_cols.reserve(total_cols - out.rank);
  for (std::size_t c = 0; c < total_cols; ++c)
    if (out.pivot_row_of[c] < 0) out.free_cols.push_back(c);
  return out;
}

}  // namespace

certification certify_coding(const graph::digraph& g, int f,
                             const dispute_record& disputes,
                             const coding_scheme& coding, int jobs) {
  certification out;
  out.ok = true;
  // No member (or single-node members, with nothing to distinguish) means a
  // vacuously certified Omega_k: return before paying for the elimination.
  const auto omega = omega_subgraphs(g, f, disputes);
  if (omega.empty() || omega.front().size() < 2) return out;

  const std::vector<graph::node_id> active = g.active_nodes();
  const reduced_blocks rb = reduce_all_blocks(g, active, coding, jobs);
  const std::size_t need =
      (omega.front().size() - 1) * static_cast<std::size_t>(coding.rho());

  std::vector<bool> in_h(static_cast<std::size_t>(g.universe()), false);
  std::vector<bool> in_x(rb.m.cols(), false);
  std::vector<std::size_t> xcols, piv_rows, sub_cols;
  for (const auto& h : omega) {
    obs::count(obs::counter::cert_subgraphs);
    obs::count(obs::counter::cert_loo_downdates);
    // X_S: the columns incident to S = active \ H (an edge between two S
    // nodes is listed once).
    for (graph::node_id v : h) in_h[static_cast<std::size_t>(v)] = true;
    xcols.clear();
    for (graph::node_id x : active) {
      if (in_h[static_cast<std::size_t>(x)]) continue;
      for (std::size_t c : rb.node_cols[static_cast<std::size_t>(x)])
        if (!in_x[c]) {
          in_x[c] = true;
          xcols.push_back(c);
        }
    }
    for (graph::node_id v : h) in_h[static_cast<std::size_t>(v)] = false;

    piv_rows.clear();
    for (std::size_t c : xcols)
      if (rb.pivot_row_of[c] >= 0)
        piv_rows.push_back(static_cast<std::size_t>(rb.pivot_row_of[c]));
    sub_cols.clear();
    for (std::size_t c : rb.free_cols)
      if (!in_x[c]) sub_cols.push_back(c);
    gf::matrix<gf::gf2_16> corner(piv_rows.size(), sub_cols.size());
    for (std::size_t i = 0; i < piv_rows.size(); ++i)
      for (std::size_t j = 0; j < sub_cols.size(); ++j)
        corner.at(i, j) = rb.m.at(piv_rows[i], sub_cols[j]);
    const std::size_t rank_h = rb.rank - piv_rows.size() + gf::rank(std::move(corner));
    for (std::size_t c : xcols) in_x[c] = false;

    if (rank_h != need) {
      out.ok = false;
      out.failing.push_back(h);
    }
  }
  return out;
}

std::uint64_t certify_cost_estimate(
    const graph::digraph& g, const std::vector<std::vector<graph::node_id>>& omega,
    int rho) {
  if (omega.empty() || omega.front().size() < 2) return 0;
  const auto rho_u = static_cast<std::uint64_t>(rho);
  std::uint64_t cols = 0;
  std::vector<std::uint64_t> incident(static_cast<std::size_t>(g.universe()), 0);
  for (const graph::edge& e : g.edges()) {
    const auto cap = static_cast<std::uint64_t>(e.cap);
    cols += cap;
    incident[static_cast<std::size_t>(e.from)] += cap;
    incident[static_cast<std::size_t>(e.to)] += cap;
  }
  // The all-blocks Gauss-Jordan: rank tops out rho short of full (per
  // symbol the block rows sum to zero), and every pivot eliminates from
  // ~all rows over a tail that shrinks one column per pivot.
  const std::uint64_t rows = static_cast<std::uint64_t>(g.active_count()) * rho_u;
  const std::uint64_t r = std::min(rows - rho_u, cols);
  std::uint64_t cost = rows * (r * cols - r * r / 2);

  // One corner per member: ~r/cols of X_S's columns carry a pivot (pivots
  // land roughly uniformly), against the cols - r free columns.
  const std::uint64_t nfree = cols - r;
  for (const auto& h : omega) {
    // |X_S| from the incidences H's nodes leave over (every column has two).
    std::uint64_t in_h = 0;
    for (graph::node_id v : h) in_h += incident[static_cast<std::size_t>(v)];
    const std::uint64_t xs = std::min(cols, 2 * cols - in_h);
    const std::uint64_t px =
        xs == 0 ? 0 : std::min(xs, std::max<std::uint64_t>(1, r * xs / cols));
    const std::uint64_t sub_r = std::min(px, nfree);
    cost += px * (sub_r * nfree - sub_r * sub_r / 2);
  }
  return cost;
}

double theorem1_failure_bound(int n, int f, int rho, int field_bits) {
  NAB_ASSERT(n > f && f >= 0 && rho > 0 && field_bits > 0,
             "invalid Theorem 1 parameters");
  // C(n, n-f) = C(n, f).
  double binom = 1.0;
  for (int i = 0; i < f; ++i) binom = binom * (n - i) / (i + 1);
  const double bound =
      binom * (n - f - 1) * rho * std::pow(2.0, -static_cast<double>(field_bits));
  return bound > 1.0 ? 1.0 : bound;
}

}  // namespace nab::core
