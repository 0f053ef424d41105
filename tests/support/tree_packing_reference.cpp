#include "support/tree_packing_reference.hpp"

#include <string>

#include "graph/maxflow.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::graph {

namespace {

/// Rebuilds a digraph from a residual capacity matrix over `nodes`.
digraph from_matrix(int universe, const std::vector<node_id>& nodes,
                    const std::vector<capacity_t>& rem) {
  digraph g(universe);
  std::vector<bool> keep(static_cast<std::size_t>(universe), false);
  for (node_id v : nodes) keep[static_cast<std::size_t>(v)] = true;
  for (node_id v = 0; v < universe; ++v)
    if (!keep[static_cast<std::size_t>(v)]) g.remove_node(v);
  for (node_id u : nodes)
    for (node_id v : nodes) {
      const capacity_t c = rem[static_cast<std::size_t>(u) * universe + v];
      if (c > 0) g.add_edge(u, v, c);
    }
  return g;
}

/// True iff MINCUT(root, w) >= need for every active w in the graph defined
/// by the residual matrix `rem` (the Lovász safety invariant), evaluated
/// with from-scratch max-flows.
bool connectivity_at_least(int universe, const std::vector<node_id>& nodes,
                           const std::vector<capacity_t>& rem, node_id root, int need) {
  if (need <= 0) return true;
  const digraph g = from_matrix(universe, nodes, rem);
  for (node_id w : nodes) {
    if (w == root) continue;
    if (min_cut_value(g, root, w) < need) return false;
  }
  return true;
}

/// True iff every ordered pair of active nodes has the same positive
/// capacity (the graphs pack_arborescences packs in closed form).
bool is_complete_uniform(const digraph& g) {
  const std::vector<node_id> nodes = g.active_nodes();
  if (nodes.size() < 2) return false;
  const capacity_t c = g.cap(nodes[0], nodes[1]);
  for (node_id u : nodes)
    for (node_id v : nodes)
      if (u != v && g.cap(u, v) != c) return false;
  return c > 0;
}

/// The pre-incremental greedy (max-residual bias over all crossing arcs).
std::vector<spanning_tree> greedy_pack_reference(const digraph& g, node_id root, int k,
                                                 rng& rand) {
  const std::vector<node_id> nodes = g.active_nodes();
  const int n = g.universe();
  std::vector<capacity_t> rem(static_cast<std::size_t>(n) * n, 0);
  for (const edge& e : g.edges()) rem[static_cast<std::size_t>(e.from) * n + e.to] = e.cap;
  auto rem_at = [&](node_id u, node_id v) -> capacity_t& {
    return rem[static_cast<std::size_t>(u) * n + v];
  };

  std::vector<spanning_tree> trees;
  for (int t = 0; t < k; ++t) {
    spanning_tree tree;
    std::vector<bool> in_tree(static_cast<std::size_t>(n), false);
    in_tree[static_cast<std::size_t>(root)] = true;
    for (std::size_t grown = 1; grown < nodes.size(); ++grown) {
      std::vector<edge> crossing;
      capacity_t best_rem = 0;
      for (node_id u : nodes) {
        if (!in_tree[static_cast<std::size_t>(u)]) continue;
        for (node_id v : nodes) {
          if (in_tree[static_cast<std::size_t>(v)]) continue;
          const capacity_t r = rem_at(u, v);
          if (r <= 0 || r < best_rem) continue;
          if (r > best_rem) {
            best_rem = r;
            crossing.clear();
          }
          crossing.push_back({u, v, 1});
        }
      }
      if (crossing.empty()) return {};
      const edge pick = crossing[rand.below(crossing.size())];
      rem_at(pick.from, pick.to) -= 1;
      tree.edges.push_back(pick);
      in_tree[static_cast<std::size_t>(pick.to)] = true;
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

}  // namespace

std::vector<spanning_tree> pack_arborescences_reference(const digraph& g, node_id root,
                                                        int k) {
  NAB_ASSERT(g.is_active(root), "pack_arborescences root must be active");
  NAB_ASSERT(k > 0, "pack_arborescences requires k > 0");
  const std::vector<node_id> nodes = g.active_nodes();
  const int n = g.universe();
  if (broadcast_mincut(g, root) < k)
    throw error("pack_arborescences: mincut from root is below k=" +
                std::to_string(k));

  // Complete-uniform graphs take the library's closed form, as they always
  // did on this path.
  if (is_complete_uniform(g)) return pack_arborescences(g, root, k);

  rng rand(0x9ACC + static_cast<std::uint64_t>(k) * 131 + static_cast<std::uint64_t>(root));
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto trees = greedy_pack_reference(g, root, k, rand);
    if (!trees.empty()) return trees;
  }

  // From-scratch Lovász: per candidate edge, full per-sink max-flow re-runs.
  std::vector<capacity_t> rem(static_cast<std::size_t>(n) * n, 0);
  for (const edge& e : g.edges()) rem[static_cast<std::size_t>(e.from) * n + e.to] = e.cap;
  auto rem_at = [&](node_id u, node_id v) -> capacity_t& {
    return rem[static_cast<std::size_t>(u) * n + v];
  };

  std::vector<spanning_tree> trees;
  for (int t = 0; t < k; ++t) {
    const int remaining_after = k - t - 1;
    spanning_tree tree;
    std::vector<bool> in_tree(static_cast<std::size_t>(n), false);
    in_tree[static_cast<std::size_t>(root)] = true;
    std::size_t tree_size = 1;
    while (tree_size < nodes.size()) {
      bool extended = false;
      for (node_id u : nodes) {
        if (!in_tree[static_cast<std::size_t>(u)]) continue;
        for (node_id v : nodes) {
          if (in_tree[static_cast<std::size_t>(v)] || rem_at(u, v) <= 0) continue;
          rem_at(u, v) -= 1;
          if (connectivity_at_least(n, nodes, rem, root, remaining_after)) {
            tree.edges.push_back({u, v, 1});
            in_tree[static_cast<std::size_t>(v)] = true;
            ++tree_size;
            extended = true;
            break;
          }
          rem_at(u, v) += 1;
        }
        if (extended) break;
      }
      NAB_ASSERT(extended, "pack_arborescences: no safe edge found");
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

std::vector<spanning_tree> pack_undirected_trees(const ugraph& g, int k, rng& rand,
                                                 int attempts) {
  NAB_ASSERT(k > 0, "pack_undirected_trees requires k > 0");
  const std::vector<node_id> nodes = g.active_nodes();
  const int n = g.universe();

  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::vector<capacity_t> rem(static_cast<std::size_t>(n) * n, 0);
    for (const edge& e : g.edges()) {
      rem[static_cast<std::size_t>(e.from) * n + e.to] = e.cap;
      rem[static_cast<std::size_t>(e.to) * n + e.from] = e.cap;
    }
    auto rem_at = [&](node_id u, node_id v) -> capacity_t& {
      return rem[static_cast<std::size_t>(u) * n + v];
    };

    std::vector<spanning_tree> trees;
    bool ok = true;
    for (int t = 0; t < k && ok; ++t) {
      // Randomized Prim-style growth over remaining multiplicities.
      spanning_tree tree;
      std::vector<bool> in_tree(static_cast<std::size_t>(n), false);
      std::vector<node_id> frontier{nodes[rand.below(nodes.size())]};
      in_tree[static_cast<std::size_t>(frontier[0])] = true;
      std::size_t tree_size = 1;
      while (tree_size < nodes.size()) {
        // Collect all crossing edges with remaining multiplicity.
        std::vector<edge> crossing;
        for (node_id u : nodes) {
          if (!in_tree[static_cast<std::size_t>(u)]) continue;
          for (node_id v : nodes)
            if (!in_tree[static_cast<std::size_t>(v)] && rem_at(u, v) > 0)
              crossing.push_back({u, v, 1});
        }
        if (crossing.empty()) {
          ok = false;
          break;
        }
        const edge pick = crossing[rand.below(crossing.size())];
        rem_at(pick.from, pick.to) -= 1;
        rem_at(pick.to, pick.from) -= 1;
        tree.edges.push_back(pick);
        in_tree[static_cast<std::size_t>(pick.to)] = true;
        ++tree_size;
      }
      if (ok) trees.push_back(std::move(tree));
    }
    if (ok) return trees;
  }
  return {};
}

}  // namespace nab::graph
