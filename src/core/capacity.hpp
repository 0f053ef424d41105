#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace nab::core {

/// The paper's key rate quantities for a network G with fault budget f.
struct capacity_bounds {
  /// gamma* = min over reachable instance graphs G_k in Gamma of
  /// min_j MINCUT(G_k, source, j) (Section 5.1 / Appendix E).
  graph::capacity_t gamma_star = 0;
  /// U_1 = min over H in Omega_1 of the pairwise undirected min cut; the
  /// paper's rho* equals U_1 / 2 (kept as the raw U_1 here so callers can
  /// use the exact half even when U_1 is odd).
  graph::capacity_t u1 = 0;
  /// rho* = U_1 / 2 as a real number.
  double rho_star = 0.0;
  /// Theorem 2: C_BB(G) <= min(gamma*, 2 rho*).
  double capacity_upper_bound = 0.0;
  /// Eq. (6)/(28): T_NAB >= gamma* rho* / (gamma* + rho*).
  double nab_throughput_bound = 0.0;
  /// Theorem 3 guarantee actually in force: 1/2 when gamma* <= rho*, else 1/3.
  double guaranteed_fraction = 0.0;
  /// True when gamma* came from exhaustive Gamma enumeration (exact); false
  /// when the incident-fault-set estimate was used (see docs/PAPER_MAP.md,
  /// "Heuristics where the paper needs only existence").
  bool gamma_exact = false;
};

/// How to search Gamma for gamma*.
enum class gamma_mode {
  /// Enumerate every explainable edge set W (exact; exponential in the
  /// number of adjacent node pairs — only viable for small graphs).
  exhaustive,
  /// Enumerate candidate fault sets F (|F| <= f) and remove all edges
  /// incident to F, plus the forced node removals. An estimate that is exact
  /// on many graphs and cheap everywhere.
  incident_sets,
  /// exhaustive when the pair count is small enough, else incident_sets.
  auto_select,
};

/// gamma_k of one concrete instance graph (min broadcast min-cut).
graph::capacity_t gamma_k(const graph::digraph& gk, graph::node_id source);

/// Exact gamma* by enumerating all explainable edge-pair subsets
/// (Appendix E). Throws nab::error if the graph has more than ~20 adjacent
/// pairs (2^pairs blowup).
graph::capacity_t gamma_star_exhaustive(const graph::digraph& g, graph::node_id source,
                                        int f);

/// Estimate of gamma* from maximal explainable sets only (all edges
/// incident to each candidate fault set F).
graph::capacity_t gamma_star_incident(const graph::digraph& g, graph::node_id source,
                                      int f);

/// U_1 over Omega_1 (exact: enumerates the C(n, f) subsets without disputes).
graph::capacity_t u1_exact(const graph::digraph& g, int f);

/// All of the above packaged, with Theorem 2/3 quantities derived.
capacity_bounds compute_bounds(const graph::digraph& g, graph::node_id source, int f,
                               gamma_mode mode = gamma_mode::auto_select);

}  // namespace nab::core
