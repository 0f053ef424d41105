// Capacity planner: a network-engineering tool built on the public API.
// Reads a topology (file argument, or a built-in demo network), and reports
// everything the paper lets you predict about Byzantine broadcast on it:
// gamma*, rho* = U_1/2, the Theorem-2 capacity upper bound, the NAB
// throughput guarantee, the guaranteed fraction of capacity, and per-node
// min-cuts. Also emits Graphviz DOT for documentation.
//
//   ./examples/capacity_planner [topology.txt [f]]
//
// Topology format:  nodes <n> / edge <u> <v> <cap> / biedge <u> <v> <cap>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/nab.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/topology_io.hpp"
#include "support/dot.hpp"
#include "support/gomory_hu.hpp"

int main(int argc, char** argv) {
  using namespace nab;

  graph::digraph g;
  int f = argc > 2 ? std::atoi(argv[2]) : 1;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
    try {
      g = graph::parse_topology(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "parse error: %s\n", e.what());
      return 2;
    }
  } else {
    std::printf("(no topology given; using a demo 6-node datacenter-ish fabric)\n");
    g = graph::parse_topology_text(
        "nodes 6\n"
        "biedge 0 1 4\nbiedge 0 2 4\nbiedge 1 2 4\n"   // fat core triangle
        "biedge 0 3 2\nbiedge 1 4 2\nbiedge 2 5 2\n"   // access uplinks
        "biedge 3 4 1\nbiedge 4 5 1\nbiedge 3 5 1\n"   // thin leaf ring
        "biedge 0 4 1\nbiedge 1 5 1\nbiedge 2 3 1\n"); // cross links
  }

  const int n = g.universe();
  std::printf("network: %d nodes, %zu directed links, total capacity %lld\n", n,
              g.edges().size(), static_cast<long long>(g.total_capacity()));

  const int kappa = graph::global_vertex_connectivity(g);
  std::printf("vertex connectivity: %d  (supports f <= %d; requested f=%d)\n", kappa,
              (kappa - 1) / 2, f);
  if (n < 3 * f + 1 || kappa < 2 * f + 1) {
    std::printf("=> Byzantine broadcast with f=%d is IMPOSSIBLE here "
                "(needs n>=3f+1 and connectivity >= 2f+1)\n", f);
    return 1;
  }

  std::printf("\nper-node broadcast min-cuts from source 0 (Phase-1 ceilings):\n");
  for (graph::node_id v = 1; v < n; ++v)
    std::printf("  MINCUT(0 -> %d) = %lld\n", v,
                static_cast<long long>(graph::min_cut_value(g, 0, v)));

  const graph::gomory_hu_tree ght(graph::to_undirected(g));
  std::printf("undirected Gomory-Hu pair cuts (Equality-Check structure):\n");
  for (const auto& e : ght.tree_edges())
    std::printf("  cut(%d,%d) = %lld\n", e.from, e.to, static_cast<long long>(e.cap));

  const core::capacity_bounds b = core::compute_bounds(g, 0, f);
  std::printf("\npaper quantities (f=%d, source=0):\n", f);
  std::printf("  gamma*                = %lld%s\n", static_cast<long long>(b.gamma_star),
              b.gamma_exact ? "  (exact Gamma enumeration)" : "  (incident-set estimate)");
  std::printf("  U_1                   = %lld\n", static_cast<long long>(b.u1));
  std::printf("  rho* = U_1/2          = %.1f\n", b.rho_star);
  std::printf("  C_BB upper bound      = %.1f   [Theorem 2: min(gamma*, 2 rho*)]\n",
              b.capacity_upper_bound);
  std::printf("  NAB throughput bound  = %.2f   [gamma* rho* / (gamma* + rho*)]\n",
              b.nab_throughput_bound);
  std::printf("  guaranteed fraction   = %.0f%%   [Theorem 3: %s]\n",
              100.0 * b.guaranteed_fraction,
              b.guaranteed_fraction == 0.5 ? "gamma* <= rho*" : "general case");

  // Sanity-check the prediction with a real fault-free run through the
  // runtime's one-shot entry point (sweep-style experiments live in the
  // `fleet` driver; this is a single spot check).
  const core::session_run run =
      core::run_session({.g = g, .f = f}, sim::fault_set(n), nullptr, 3, 2048, 1);
  std::printf("  measured (fault-free) = %.2f bits/unit-time\n",
              run.stats.throughput());

  std::printf("\nGraphviz DOT of the topology:\n%s", graph::to_dot(g).c_str());
  return 0;
}
