#include "graph/tree_packing.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/mincut.hpp"
#include "support/tree_packing_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::graph {
namespace {

/// Checks the Edmonds packing invariants: every tree spans the active nodes
/// as an arborescence rooted at `root`, and combined edge usage respects
/// capacities.
void check_arborescence_packing(const digraph& g, node_id root,
                                const std::vector<spanning_tree>& trees) {
  const auto nodes = g.active_nodes();
  std::vector<capacity_t> usage(
      static_cast<std::size_t>(g.universe()) * g.universe(), 0);
  for (const spanning_tree& t : trees) {
    ASSERT_EQ(t.edges.size(), nodes.size() - 1) << "tree must span";
    const auto parents = t.parents(g.universe());
    EXPECT_EQ(parents[static_cast<std::size_t>(root)], -1);
    for (node_id v : nodes) {
      if (v == root) continue;
      // Walk to the root; must terminate.
      node_id cur = v;
      int guard = 0;
      while (cur != root) {
        ASSERT_LE(++guard, g.universe()) << "cycle in arborescence";
        cur = parents[static_cast<std::size_t>(cur)];
        ASSERT_GE(cur, 0) << "node " << v << " not connected to root";
      }
    }
    for (const edge& e : t.edges) {
      EXPECT_TRUE(g.has_edge(e.from, e.to));
      usage[static_cast<std::size_t>(e.from) * g.universe() + e.to] += 1;
    }
  }
  for (const edge& e : g.edges())
    EXPECT_LE(usage[static_cast<std::size_t>(e.from) * g.universe() + e.to], e.cap)
        << "capacity violated on " << e.from << "->" << e.to;
}

TEST(TreePacking, PaperFig2PacksTwoTrees) {
  // The worked example of Figure 2(c): two unit-capacity spanning trees,
  // link (1,2) used by both.
  const digraph g = paper_fig2();
  const auto trees = pack_arborescences(g, 0, 2);
  check_arborescence_packing(g, 0, trees);
  capacity_t link01_use = 0;
  for (const auto& t : trees)
    for (const edge& e : t.edges)
      if (e.from == 0 && e.to == 1) ++link01_use;
  EXPECT_EQ(link01_use, 2);  // both trees must cross the capacity-2 link
}

TEST(TreePacking, PaperFig1aPacksGammaTrees) {
  const digraph g = paper_fig1a();
  const auto trees = pack_arborescences(g, 0, 2);  // gamma = 2
  check_arborescence_packing(g, 0, trees);
}

TEST(TreePacking, InfeasibleRequestThrows) {
  const digraph g = paper_fig2();  // gamma = 2
  EXPECT_THROW(pack_arborescences(g, 0, 3), nab::error);
}

TEST(TreePacking, CompleteGraphPacksNMinusOne) {
  const digraph g = complete(5, 1);
  // broadcast mincut from any node of K5 with unit links is 4.
  ASSERT_EQ(broadcast_mincut(g, 0), 4);
  const auto trees = pack_arborescences(g, 0, 4);
  check_arborescence_packing(g, 0, trees);
}

TEST(TreePacking, RandomGraphsPackUpToGamma) {
  rng rand(31);
  for (int trial = 0; trial < 12; ++trial) {
    const digraph g = erdos_renyi(6, 0.5, 1, 3, rand);
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    ASSERT_GE(gamma, 1);
    const auto trees = pack_arborescences(g, 0, gamma);
    check_arborescence_packing(g, 0, trees);
  }
}

TEST(TreePacking, LovaszExactPathPacksEverything) {
  // Exercise the exact construction directly (the hybrid's fast path would
  // otherwise shadow it).
  rng rand(37);
  for (int trial = 0; trial < 8; ++trial) {
    const digraph g = erdos_renyi(6, 0.5, 1, 3, rand);
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    ASSERT_GE(gamma, 1);
    const auto trees = pack_arborescences_lovasz(g, 0, gamma);
    check_arborescence_packing(g, 0, trees);
  }
  const auto trees = pack_arborescences_lovasz(paper_fig2(), 0, 2);
  check_arborescence_packing(paper_fig2(), 0, trees);
}

TEST(TreePacking, IncrementalMatchesReferenceOnRegistryShapes) {
  // The incremental-flow packer against the from-scratch reference on the
  // registry's topology shapes: both must produce a full, valid packing of
  // gamma edge-disjoint arborescences (identical tree count; the greedy
  // biases differ, so edge sets may not).
  rng rand(2024);
  const std::vector<digraph> graphs = {
      paper_fig1a(),       paper_fig2(),          complete(7, 2),
      ring(5, 2),          ring(8, 1),            hypercube(3, 2),
      hypercube(5, 2),     clustered_wan(3, 3, 2, 1),
      random_regular(10, 6, 1, 2, rand)};
  for (const digraph& g : graphs) {
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    ASSERT_GE(gamma, 1);
    const auto fast = pack_arborescences(g, 0, gamma);
    const auto ref = pack_arborescences_reference(g, 0, gamma);
    ASSERT_EQ(fast.size(), static_cast<std::size_t>(gamma));
    ASSERT_EQ(ref.size(), fast.size());
    check_arborescence_packing(g, 0, fast);
    check_arborescence_packing(g, 0, ref);
  }
}

TEST(TreePacking, IncrementalMatchesReferenceOnRandomGraphs) {
  // Erdos-Renyi fuzz: hybrid and reference both deliver full valid packings,
  // and the certificate-driven exact construction (forced directly, since
  // the hybrid's greedy fast path usually shadows it) packs gamma trees too.
  rng rand(71);
  int exercised = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const digraph g = erdos_renyi(7, 0.5, 1, 3, rand);
    const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
    if (gamma < 1) continue;
    ++exercised;
    const auto fast = pack_arborescences(g, 0, gamma);
    const auto ref = pack_arborescences_reference(g, 0, gamma);
    ASSERT_EQ(fast.size(), ref.size());
    check_arborescence_packing(g, 0, fast);
    check_arborescence_packing(g, 0, ref);
    const auto inc = pack_arborescences_lovasz(g, 0, gamma);
    check_arborescence_packing(g, 0, inc);
  }
  ASSERT_GE(exercised, 8) << "fuzz must exercise real packings";
}

TEST(TreePacking, StatsCountCertificateWork) {
  pack_stats stats;
  const digraph g = hypercube(4, 2);
  const auto gamma = static_cast<int>(broadcast_mincut(g, 0));
  const auto trees = pack_arborescences(g, 0, gamma, &stats);
  ASSERT_EQ(trees.size(), static_cast<std::size_t>(gamma));
  // Feasibility certification alone visits every sink and augments each
  // certificate up to gamma.
  EXPECT_GE(stats.safety_checks, g.active_nodes().size() - 1);
  EXPECT_GE(stats.flow_augmentations,
            static_cast<std::uint64_t>(gamma) * (g.active_nodes().size() - 1));
}

TEST(TreePacking, HighCapacityEdgeReusedAcrossTrees) {
  // Two nodes joined by a fat edge: k trees all use it.
  digraph g(2);
  g.add_edge(0, 1, 5);
  const auto trees = pack_arborescences(g, 0, 5);
  ASSERT_EQ(trees.size(), 5u);
  for (const auto& t : trees) {
    ASSERT_EQ(t.edges.size(), 1u);
    EXPECT_EQ(t.edges[0].from, 0);
    EXPECT_EQ(t.edges[0].to, 1);
  }
}

TEST(TreePacking, UndirectedGreedyPacksHalfMincutOnPaperGraphs) {
  // Nash-Williams: floor(U/2) trees exist. Fig 1(a) undirected has U = 4
  // for the full graph? Each bidirectional unit pair gives weight 2; the
  // weakest pair cut is 4 (node 1 has undirected degree 2+2). U/2 = 2.
  const ugraph u = to_undirected(paper_fig1a());
  rng rand(5);
  const capacity_t cut = pairwise_min_cut(u);
  const auto trees = pack_undirected_trees(u, static_cast<int>(cut / 2), rand);
  ASSERT_FALSE(trees.empty());
  for (const auto& t : trees) EXPECT_EQ(t.edges.size(), u.active_nodes().size() - 1);
}

TEST(TreePacking, UndirectedGreedyRespectsMultiplicity) {
  const ugraph u = to_undirected(complete(5, 2));  // weight 4 per pair
  rng rand(6);
  const auto trees = pack_undirected_trees(u, 4, rand);
  ASSERT_FALSE(trees.empty());
  std::vector<int> use(25, 0);
  for (const auto& t : trees)
    for (const edge& e : t.edges) {
      ++use[static_cast<std::size_t>(e.from) * 5 + e.to];
      ++use[static_cast<std::size_t>(e.to) * 5 + e.from];
    }
  for (node_id a = 0; a < 5; ++a)
    for (node_id b = 0; b < 5; ++b)
      EXPECT_LE(use[static_cast<std::size_t>(a) * 5 + b], 4);
}

TEST(TreePacking, ParentsViewRoundTrips) {
  spanning_tree t;
  t.edges = {{0, 2, 1}, {2, 1, 1}};
  const auto p = t.parents(3);
  EXPECT_EQ(p[0], -1);
  EXPECT_EQ(p[2], 0);
  EXPECT_EQ(p[1], 2);
}

}  // namespace
}  // namespace nab::graph
