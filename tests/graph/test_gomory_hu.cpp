#include "support/gomory_hu.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/mincut.hpp"
#include "util/rng.hpp"

namespace nab::graph {
namespace {

TEST(GomoryHu, MatchesDirectMaxflowOnRandomGraphs) {
  rng rand(4242);
  for (int trial = 0; trial < 15; ++trial) {
    const digraph g = erdos_renyi(7, 0.5, 1, 8, rand);
    const ugraph u = to_undirected(g);
    const gomory_hu_tree tree(u);
    const auto nodes = u.active_nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        EXPECT_EQ(tree.min_cut(nodes[i], nodes[j]),
                  min_cut_value_undirected(u, nodes[i], nodes[j]))
            << "pair (" << nodes[i] << "," << nodes[j] << ") trial " << trial;
      }
  }
}

TEST(GomoryHu, MinimumPairCutMatchesStoerWagner) {
  rng rand(11);
  for (int trial = 0; trial < 15; ++trial) {
    const digraph g = erdos_renyi(8, 0.45, 1, 5, rand);
    const ugraph u = to_undirected(g);
    EXPECT_EQ(gomory_hu_tree(u).minimum_pair_cut(), global_min_cut(u).value);
  }
}

TEST(GomoryHu, TreeHasNMinusOneEdges) {
  const digraph g = complete(6, 2);
  const gomory_hu_tree tree(to_undirected(g));
  EXPECT_EQ(tree.tree_edges().size(), 5u);
}

TEST(GomoryHu, WorksOnInducedSubgraphs) {
  const digraph g = paper_fig1a();
  const ugraph u = to_undirected(g);
  const gomory_hu_tree tree(u.induced({0, 1, 3}));
  EXPECT_EQ(tree.min_cut(0, 1), 2);
  EXPECT_EQ(tree.min_cut(1, 3), 2);
  EXPECT_EQ(tree.minimum_pair_cut(), 2);
}

TEST(GomoryHu, SingleNodeTree) {
  ugraph u(3);
  u.remove_node(1);
  u.remove_node(2);
  const gomory_hu_tree tree(u);
  EXPECT_TRUE(tree.tree_edges().empty());
}

TEST(GomoryHu, InducedSubgraphQueriesMatchDirectMaxflow) {
  // The U_k path queries Gomory-Hu trees of induced subgraphs (omega
  // members); cross-check every pair cut against a direct undirected
  // max-flow on random weighted graphs.
  rng rand(321);
  for (int trial = 0; trial < 10; ++trial) {
    const digraph g = erdos_renyi(9, 0.5, 1, 6, rand);
    const ugraph u = to_undirected(g);
    // Drop a random pair of nodes, as omega subgraphs do.
    auto nodes = u.active_nodes();
    std::vector<node_id> keep;
    const std::size_t drop_a = rand.below(nodes.size());
    const std::size_t drop_b = rand.below(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (i != drop_a && i != drop_b) keep.push_back(nodes[i]);
    const ugraph h = u.induced(keep);
    const gomory_hu_tree tree(h);
    for (std::size_t i = 0; i < keep.size(); ++i)
      for (std::size_t j = i + 1; j < keep.size(); ++j)
        EXPECT_EQ(tree.min_cut(keep[i], keep[j]),
                  min_cut_value_undirected(h, keep[i], keep[j]))
            << "trial " << trial << " pair (" << keep[i] << "," << keep[j] << ")";
  }
}

TEST(GomoryHu, HeavyWeightedGraphMatchesStoerWagner) {
  // Wide capacities exercise the non-unit flow paths.
  rng rand(777);
  for (int trial = 0; trial < 8; ++trial) {
    const digraph g = erdos_renyi(10, 0.4, 3, 40, rand);
    const ugraph u = to_undirected(g);
    EXPECT_EQ(gomory_hu_tree(u).minimum_pair_cut(), global_min_cut(u).value)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace nab::graph
