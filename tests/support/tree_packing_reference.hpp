#pragma once

#include <vector>

#include "graph/tree_packing.hpp"
#include "util/rng.hpp"

namespace nab::graph {

/// The pre-incremental arborescence packer (greedy with max-residual bias,
/// Lovász safety via from-scratch per-sink max-flows). The reference that
/// pack_arborescences is checked against in tests and timed against in the
/// old-vs-new bench rows; the protocol never runs it.
std::vector<spanning_tree> pack_arborescences_reference(const digraph& g, node_id root,
                                                        int k);

/// Greedily packs `k` edge-disjoint undirected spanning trees (weights act
/// as parallel unit edges), retrying with `attempts` random edge orders.
///
/// Nash-Williams/Tutte guarantee floor(U/2) trees exist when the global min
/// cut is U; this packer is a randomized heuristic (exact packing is matroid
/// union, which the protocol never needs — see docs/PAPER_MAP.md,
/// "Heuristics where the paper needs only existence"). Returns the packed
/// trees, or an empty vector if all attempts fail.
std::vector<spanning_tree> pack_undirected_trees(const ugraph& g, int k, rng& rand,
                                                 int attempts = 64);

}  // namespace nab::graph
