#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "graph/maxflow.hpp"
#include "support/dot.hpp"
#include "util/rng.hpp"

namespace nab::graph {
namespace {

TEST(Generators, CompleteGraphShape) {
  const digraph g = complete(5, 3);
  EXPECT_EQ(g.edges().size(), 20u);
  for (const edge& e : g.edges()) EXPECT_EQ(e.cap, 3);
}

TEST(Generators, PaperFig1aMatchesStatedStructure) {
  const digraph g = paper_fig1a();
  EXPECT_EQ(g.universe(), 4);
  // No link between paper-nodes 2 and 4 (0-based 1 and 3).
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(3, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(Generators, PaperFig1bRemovesDisputedPair) {
  const digraph g = paper_fig1b();
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Generators, PaperFig2Capacities) {
  const digraph g = paper_fig2();
  EXPECT_EQ(g.cap(0, 1), 2);
  EXPECT_EQ(g.cap(0, 2), 1);
  EXPECT_EQ(g.cap(1, 2), 1);
  EXPECT_EQ(g.cap(1, 3), 1);
  EXPECT_EQ(g.cap(2, 3), 1);
  EXPECT_EQ(g.edges().size(), 5u);
}

TEST(Generators, RingDegrees) {
  const digraph g = ring(7, 2);
  for (node_id v = 0; v < 7; ++v) {
    EXPECT_EQ(g.out_neighbors(v).size(), 2u);
    EXPECT_EQ(g.in_neighbors(v).size(), 2u);
  }
}

TEST(Generators, ErdosRenyiIsStronglyConnected) {
  rng rand(1);
  for (int trial = 0; trial < 10; ++trial) {
    const digraph g = erdos_renyi(8, 0.2, 1, 5, rand);
    EXPECT_GE(broadcast_mincut(g, 0), 1);
    for (node_id v = 1; v < 8; ++v) EXPECT_GE(min_cut_value(g, v, 0), 1);
  }
}

TEST(Generators, ErdosRenyiCapacitiesInRange) {
  rng rand(2);
  const digraph g = erdos_renyi(10, 0.5, 2, 7, rand);
  for (const edge& e : g.edges()) {
    EXPECT_GE(e.cap, 2);
    EXPECT_LE(e.cap, 7);
  }
}

TEST(Generators, RandomRegularReachesTargetDegree) {
  rng rand(3);
  const digraph g = random_regular(10, 4, 1, 3, rand);
  int total_deficit = 0;
  for (node_id v = 0; v < 10; ++v) {
    const int d = static_cast<int>(g.out_neighbors(v).size());
    EXPECT_GE(d, 2);  // at least the cycle
    if (d < 4) total_deficit += 4 - d;
  }
  EXPECT_LE(total_deficit, 2);  // best-effort: at most one unmatched pair
}

TEST(Generators, DumbbellStructure) {
  const digraph g = dumbbell(8, 10, 1);
  EXPECT_EQ(g.cap(0, 1), 10);
  EXPECT_EQ(g.cap(4, 5), 10);
  EXPECT_EQ(g.cap(0, 4), 1);
  EXPECT_EQ(g.cap(1, 5), 1);
  EXPECT_FALSE(g.has_edge(0, 5));
  EXPECT_GE(global_vertex_connectivity(g), 3);
}

TEST(Generators, PathOfCliquesHopCount) {
  const digraph g = path_of_cliques(4, 3, 2);
  EXPECT_EQ(g.universe(), 12);
  EXPECT_TRUE(g.has_edge(0, 3));   // cluster 0 -> cluster 1
  EXPECT_FALSE(g.has_edge(0, 6));  // no skip links
  EXPECT_GE(broadcast_mincut(g, 0), 1);
}

TEST(Generators, HypercubeHasDimConnectivityAndDegree) {
  const digraph g = hypercube(3, 2);
  EXPECT_EQ(g.universe(), 8);
  for (node_id v = 0; v < 8; ++v)
    EXPECT_EQ(g.out_neighbors(v).size(), 3u) << v;
  for (const edge& e : g.edges()) {
    EXPECT_EQ(e.cap, 2);
    const int diff = e.from ^ e.to;
    EXPECT_EQ(diff & (diff - 1), 0) << "non-hypercube edge";  // power of two
  }
  EXPECT_EQ(global_vertex_connectivity(g), 3);
}

TEST(Generators, ClusteredWanShapeAndTrunkCapacities) {
  const digraph g = clustered_wan(3, 3, 4, 1, 2);
  EXPECT_EQ(g.universe(), 9);
  // Intra-cluster links are fat, inter-cluster links thin.
  for (const edge& e : g.edges()) {
    const bool same_cluster = e.from / 3 == e.to / 3;
    EXPECT_EQ(e.cap, same_cluster ? 4 : 1) << e.from << "->" << e.to;
  }
  // Every cluster pair is joined by at least one trunk.
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      bool linked = false;
      for (const edge& e : g.edges())
        linked = linked || (e.from / 3 == a && e.to / 3 == b);
      EXPECT_TRUE(linked) << "clusters " << a << "," << b;
    }
  // Feasible for f = 1 (the registry's clustered-wan preset relies on it).
  EXPECT_GE(global_vertex_connectivity(g), 3);
}

TEST(Generators, DotOutputMentionsAllEdges) {
  const digraph g = paper_fig2();
  const std::string dot = to_dot(g, {2});
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"2\""), std::string::npos);
  EXPECT_NE(dot.find("salmon"), std::string::npos);
  const std::string udot = to_dot(to_undirected(g));
  EXPECT_NE(udot.find("n0 -- n1"), std::string::npos);
}

}  // namespace
}  // namespace nab::graph
