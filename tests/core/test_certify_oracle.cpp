// The downdate certifier against the per-H oracle (certify_oracle.hpp): one
// shared elimination plus a corner rank per member must give the same `ok`,
// the same failing subgraphs and the same order as an independent
// elimination of every C_H — across fault budgets 1-3, convicted (inactive)
// nodes, disputes, over-large rho, empty Omega_k and disconnected graphs —
// and the same answer for every worker count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/certify.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

#include "certify_oracle.hpp"

namespace nab::core {
namespace {

struct trial {
  std::string name;
  graph::digraph g;
  int f = 1;
  dispute_record disputes;
  int rho = 1;
};

/// Certifies with both, asserts identical results, and checks the counter
/// contract: one downdate per member with at least two nodes.
void expect_agreement(const trial& t, const coding_scheme& cs, int jobs = 1) {
  const certification want = oracle::certify_per_h(t.g, t.f, t.disputes, cs);
  obs::collector col;
  certification got;
  {
    obs::scoped_collector scope(&col);
    got = certify_coding(t.g, t.f, t.disputes, cs, jobs);
  }
  EXPECT_EQ(got.ok, want.ok) << t.name;
  EXPECT_EQ(got.failing, want.failing) << t.name;
  std::uint64_t members = 0;
  for (const auto& h : omega_subgraphs(t.g, t.f, t.disputes))
    if (h.size() >= 2) ++members;
  EXPECT_EQ(col.value(obs::counter::cert_subgraphs), members) << t.name;
  EXPECT_EQ(col.value(obs::counter::cert_loo_downdates), members) << t.name;
}

/// Puts (a, b) in dispute and drops their links, as dispute control does.
void dispute(trial& t, graph::node_id a, graph::node_id b) {
  if (a == b) return;
  t.disputes.add_dispute(a, b);
  t.g.remove_edge_pair(a, b);
}

TEST(CertifyOracle, RandomTrialsAgreeAcrossFaultBudgetsConvictionsAndDisputes) {
  rng rand(2024);
  int failing_schemes = 0;
  for (int i = 0; i < 90; ++i) {
    trial t;
    t.f = 1 + i % 3;
    const int n = 3 * t.f + 2 + static_cast<int>(rand.below(3));
    switch (i % 5) {
      case 0: t.g = graph::erdos_renyi(n, 0.7, 1, 2, rand); break;
      case 1: t.g = graph::complete(n, 1 + static_cast<int>(rand.below(2))); break;
      case 2: t.g = graph::random_regular(n + (n % 2), 4, 1, 2, rand); break;
      case 3: t.g = graph::hypercube(t.f == 1 ? 3 : 4, 1); break;
      default: t.g = graph::clustered_wan(3, n / 3 + 1, 3, 1); break;
    }
    t.name = "trial " + std::to_string(i) + " f=" + std::to_string(t.f);
    // Convictions shrink the active set below the universe.
    if (i % 4 == 1) {
      const auto nodes = t.g.active_nodes();
      t.g.remove_node(nodes[rand.below(nodes.size())]);
      t.name += " convicted";
    }
    // Up to two disputed pairs among the active nodes.
    for (int d = 0; d < (i % 3); ++d) {
      const auto nodes = t.g.active_nodes();
      dispute(t, nodes[rand.below(nodes.size())], nodes[rand.below(nodes.size())]);
      t.name += " disputed";
    }
    const graph::capacity_t uk = compute_uk(t.g, t.f, t.disputes);
    // Over-large rho on every third trial: Theorem 1's premise fails, so
    // rank-deficient members (and failing lists) show up.
    t.rho = static_cast<int>(compute_rho(uk)) + (i % 3 == 0 ? 3 : 0);
    const coding_scheme cs = coding_scheme::generate(t.g, t.rho, 5000 + i);
    if (!oracle::certify_per_h(t.g, t.f, t.disputes, cs).ok) ++failing_schemes;
    expect_agreement(t, cs);
  }
  // The sweep must exercise the failing path, not only certified schemes.
  EXPECT_GE(failing_schemes, 10);
}

TEST(CertifyOracle, EmptyOmegaIsVacuouslyCertifiedWithoutElimination) {
  // K_7 at f = 2 with three pairwise-disjoint disputed pairs: every 5-subset
  // holds one pair, so Omega_k is empty.
  trial t{"empty omega", graph::complete(7), 2, {}, 2};
  dispute(t, 0, 1);
  dispute(t, 2, 3);
  dispute(t, 4, 5);
  ASSERT_TRUE(omega_subgraphs(t.g, t.f, t.disputes).empty());
  const coding_scheme cs = coding_scheme::generate(t.g, t.rho, 3);
  obs::collector col;
  {
    obs::scoped_collector scope(&col);
    EXPECT_TRUE(certify_coding(t.g, t.f, t.disputes, cs).ok);
  }
  EXPECT_EQ(col.value(obs::counter::gf_rows_eliminated), 0u);
  expect_agreement(t, cs);
}

TEST(CertifyOracle, DisconnectedGraphsFailTheSameMembers) {
  // Two K_4 islands joined by nothing, and a path of cliques with a cut
  // node: members that straddle the gap are rank-deficient.
  graph::digraph islands(8);
  for (graph::node_id u = 0; u < 8; ++u)
    for (graph::node_id v = u + 1; v < 8; ++v)
      if ((u < 4) == (v < 4)) islands.add_bidirectional(u, v, 1);
  for (int f : {1, 2}) {
    trial t{"islands f=" + std::to_string(f), islands, f, {}, 1};
    const coding_scheme cs = coding_scheme::generate(t.g, t.rho, 11);
    expect_agreement(t, cs);
    EXPECT_FALSE(certify_coding(t.g, t.f, t.disputes, cs).ok);
  }
  trial chain{"path of cliques", graph::path_of_cliques(3, 3), 1, {}, 1};
  expect_agreement(chain, coding_scheme::generate(chain.g, 1, 12));
}

TEST(CertifyOracle, WorkerCountNeverChangesTheCertificate) {
  // K_45 at rho 12: a 540 x 1980 all-blocks matrix, above the blocked
  // elimination's panel threshold (2^20 words), so the trailing update fans
  // out. The
  // per-H oracle is too slow at this size; the verdict, failing list and
  // GF counters must simply not depend on the worker count. The second
  // graph cuts every link of node 44, so each member that keeps it fails.
  graph::digraph cut = graph::complete(45);
  for (graph::node_id v = 0; v < 44; ++v) cut.remove_edge_pair(v, 44);
  for (const graph::digraph& g : {graph::complete(45), cut}) {
    const coding_scheme cs = coding_scheme::generate(g, 12, 77);
    std::vector<certification> results;
    std::vector<std::uint64_t> words;
    for (int jobs : {1, 2, 4}) {
      obs::collector col;
      {
        obs::scoped_collector scope(&col);
        results.push_back(certify_coding(g, 1, dispute_record{}, cs, jobs));
      }
      words.push_back(col.value(obs::counter::gf_axpy_words) +
                      col.value(obs::counter::gf_scale_words));
    }
    const bool whole = g.edges().size() == 45u * 44u;
    EXPECT_EQ(results[0].ok, whole);
    EXPECT_EQ(results[0].failing.size(), whole ? 0u : 44u);
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].ok, results[0].ok);
      EXPECT_EQ(results[i].failing, results[0].failing);
      EXPECT_EQ(words[i], words[0]);
    }
  }
}

}  // namespace
}  // namespace nab::core
