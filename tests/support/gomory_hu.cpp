#include "support/gomory_hu.hpp"

#include <algorithm>
#include <limits>

#include "graph/maxflow.hpp"
#include "util/assert.hpp"

namespace nab::graph {

gomory_hu_tree::gomory_hu_tree(const ugraph& g) : nodes_(g.active_nodes()) {
  const auto n = nodes_.size();
  NAB_ASSERT(n >= 1, "gomory_hu_tree needs at least one active node");
  parent_.assign(n, 0);
  parent_cut_.assign(n, 0);
  index_of_.assign(static_cast<std::size_t>(g.universe()), -1);
  for (std::size_t i = 0; i < n; ++i) index_of_[static_cast<std::size_t>(nodes_[i])] = static_cast<int>(i);

  // Undirected max-flow with cut side extraction: reuse the directed
  // machinery by modeling each undirected edge as two opposing arcs. Built
  // once — max_flow never mutates its input, and rebuilding it per flow was
  // the dominant cost of tree construction on dense graphs.
  digraph d(g.universe());
  for (node_id v = 0; v < g.universe(); ++v)
    if (!g.is_active(v)) d.remove_node(v);
  for (const edge& e : g.edges()) d.add_bidirectional(e.from, e.to, e.cap);

  // Gusfield: for i = 1..n-1, flow from nodes_[i] to its current parent;
  // re-parent any j > i on the source side of the cut.
  for (std::size_t i = 1; i < n; ++i) {
    const node_id s = nodes_[i];
    const node_id t = nodes_[static_cast<std::size_t>(parent_[i])];

    const flow_result fr = max_flow(d, s, t);
    parent_cut_[i] = fr.value;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (parent_[j] == parent_[i] && fr.source_side[static_cast<std::size_t>(nodes_[j])])
        parent_[j] = static_cast<int>(i);
    }
  }
}

capacity_t gomory_hu_tree::min_cut(node_id u, node_id v) const {
  NAB_ASSERT(u >= 0 && v >= 0, "gomory_hu_tree::min_cut invalid node");
  const int iu = index_of_[static_cast<std::size_t>(u)];
  const int iv = index_of_[static_cast<std::size_t>(v)];
  NAB_ASSERT(iu >= 0 && iv >= 0, "gomory_hu_tree::min_cut node not active");
  if (iu == iv) return 0;

  // Walk both nodes up to their common ancestor, tracking the minimum edge.
  auto depth = [&](int x) {
    int d = 0;
    while (x != 0) {
      x = parent_[static_cast<std::size_t>(x)];
      ++d;
    }
    return d;
  };
  int a = iu, b = iv;
  int da = depth(a), db = depth(b);
  capacity_t best = std::numeric_limits<capacity_t>::max();
  while (da > db) {
    best = std::min(best, parent_cut_[static_cast<std::size_t>(a)]);
    a = parent_[static_cast<std::size_t>(a)];
    --da;
  }
  while (db > da) {
    best = std::min(best, parent_cut_[static_cast<std::size_t>(b)]);
    b = parent_[static_cast<std::size_t>(b)];
    --db;
  }
  while (a != b) {
    best = std::min(best, parent_cut_[static_cast<std::size_t>(a)]);
    best = std::min(best, parent_cut_[static_cast<std::size_t>(b)]);
    a = parent_[static_cast<std::size_t>(a)];
    b = parent_[static_cast<std::size_t>(b)];
  }
  return best;
}

capacity_t gomory_hu_tree::minimum_pair_cut() const {
  if (nodes_.size() < 2) return 0;
  capacity_t best = std::numeric_limits<capacity_t>::max();
  for (std::size_t i = 1; i < nodes_.size(); ++i) best = std::min(best, parent_cut_[i]);
  return best;
}

std::vector<edge> gomory_hu_tree::tree_edges() const {
  std::vector<edge> out;
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    out.push_back({nodes_[i], nodes_[static_cast<std::size_t>(parent_[i])], parent_cut_[i]});
  return out;
}

}  // namespace nab::graph
