#pragma once

#include <set>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"

namespace nab::core {

/// Accumulated fault knowledge across NAB instances: node pairs found in
/// dispute (at least one of each pair is faulty) and nodes convicted as
/// faulty. All honest nodes hold identical copies — dispute control
/// disseminates the evidence with classical BB.
class dispute_record {
 public:
  /// Records an unordered disputing pair.
  void add_dispute(graph::node_id a, graph::node_id b);

  void convict(graph::node_id v) { convicted_.insert(v); }

  bool in_dispute(graph::node_id a, graph::node_id b) const;
  bool is_convicted(graph::node_id v) const { return convicted_.count(v) > 0; }

  const std::set<std::pair<graph::node_id, graph::node_id>>& pairs() const {
    return pairs_;
  }
  const std::set<graph::node_id>& convicted() const { return convicted_; }

  /// Number of distinct nodes node v is in dispute with.
  int dispute_degree(graph::node_id v) const;

  bool empty() const { return pairs_.empty() && convicted_.empty(); }

 private:
  std::set<std::pair<graph::node_id, graph::node_id>> pairs_;  // (min, max)
  std::set<graph::node_id> convicted_;
};

/// The paper's Omega_k: all subgraphs of g with exactly (n - f) nodes such
/// that no two of them have been found in dispute. Returned as sorted node
/// lists. `n` is the ORIGINAL network size (the universe), per the paper —
/// every returned subset is drawn from g's currently active nodes.
std::vector<std::vector<graph::node_id>> omega_subgraphs(const graph::digraph& g, int f,
                                                         const dispute_record& disputes);

/// U_k = min over H in Omega_k of the pairwise min cut of the undirected
/// version of H (Section 3, "Choice of Parameter rho_k"). Returns 0 when
/// Omega_k is empty or some H is disconnected.
///
/// Each H gets a cheap BFS connectivity pre-check first — a disconnected H
/// short-circuits the whole minimum to 0 without running any min-cut on the
/// remaining subgraphs. Connected ones run Stoer–Wagner (measured faster
/// than a Gomory–Hu-tree query at registry sizes; see compute_uk in
/// omega.cpp). Sweeps share results via core::omega_cache.
graph::capacity_t compute_uk(const graph::digraph& g, int f,
                             const dispute_record& disputes);

/// Same minimum over an already-enumerated Omega_k (the omega_cache layer
/// computes the enumeration once and derives U_k from it). The per-H cuts
/// fan out over `jobs` workers into preallocated slots before the min-fold,
/// so the result is the same for every worker count.
graph::capacity_t compute_uk(const graph::digraph& g,
                             const std::vector<std::vector<graph::node_id>>& omega,
                             int jobs = 1);

/// rho_k = max(U_k / 2, 1): the paper requires rho_k <= U_k / 2 and
/// minimizes Equality Check time at equality; the floor at 1 keeps the
/// protocol well-defined on degenerate graphs.
graph::capacity_t compute_rho(graph::capacity_t uk);

}  // namespace nab::core
