#include "core/certify.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gf/linalg.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

#include "certify_oracle.hpp"

namespace nab::core {
namespace {

TEST(Certify, RandomMatricesCertifyOnPaperGraphs) {
  // Theorem 1: random coding matrices are correct with overwhelming
  // probability over GF(2^16).
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 1234);  // rho = U1/2 = 1
  const certification c = certify_coding(g, 1, dispute_record{}, cs);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.failing.empty());
}

TEST(Certify, CompleteGraphHigherRho) {
  const graph::digraph g = graph::complete(7, 2);
  // U1 = min pairwise cut over 5-subsets = 4*4=16 -> rho = 8.
  const graph::capacity_t uk = compute_uk(g, 2, dispute_record{});
  const coding_scheme cs =
      coding_scheme::generate(g, static_cast<int>(compute_rho(uk)), 99);
  EXPECT_TRUE(certify_coding(g, 2, dispute_record{}, cs).ok);
}

TEST(Certify, OverlargeRhoFailsCertification) {
  // rho above U_k/2 violates Theorem 1's premise: C_H cannot reach full row
  // rank because some H has too little capacity. Use the paper's Fig 1(a)
  // with rho = 3 (U_1 = 2 means rho must be 1).
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 3, 5);
  const certification c = certify_coding(g, 1, dispute_record{}, cs);
  EXPECT_FALSE(c.ok);
  EXPECT_FALSE(c.failing.empty());
}

TEST(Certify, CheckMatrixShape) {
  const graph::digraph g = graph::paper_fig1a();
  const coding_scheme cs = coding_scheme::generate(g, 1, 7);
  // H = {0,1,2}: edges inside are (0,1),(1,0),(0,2),(2,0),(1,2),(2,1), all
  // capacity 1 -> 6 columns; rows = (|H|-1)*rho = 2.
  const auto ch = oracle::build_check_matrix(g, {0, 1, 2}, cs);
  EXPECT_EQ(ch.rows(), 2u);
  EXPECT_EQ(ch.cols(), 6u);
}

TEST(Certify, CheckMatrixKernelIsExactlyEqualValues) {
  // D_H C_H = 0 iff all nodes in H hold equal values (the EC property, in
  // matrix form): for certified schemes the kernel must be trivial.
  const graph::digraph g = graph::complete(4);
  const coding_scheme cs = coding_scheme::generate(g, 2, 21);
  const std::vector<graph::node_id> h{0, 1, 2};
  auto ch = oracle::build_check_matrix(g, h, cs);
  EXPECT_EQ(gf::rank(ch), (h.size() - 1) * 2);
}

TEST(Certify, DisputesShrinkOmegaAndCertificationFollows) {
  const graph::digraph g = graph::paper_fig1b();
  dispute_record r;
  r.add_dispute(1, 2);
  const coding_scheme cs = coding_scheme::generate(g, 1, 31);
  EXPECT_TRUE(certify_coding(g, 1, r, cs).ok);
}

TEST(Certify, Theorem1BoundValues) {
  // n=4, f=1, rho=1: C(4,3)*(4-1-1)*1 = 8 bad events; field 2^16.
  EXPECT_DOUBLE_EQ(theorem1_failure_bound(4, 1, 1, 16), 8.0 / 65536.0);
  // Tiny fields clamp to 1.
  EXPECT_DOUBLE_EQ(theorem1_failure_bound(10, 3, 8, 2), 1.0);
  // f = 0: single subgraph.
  EXPECT_DOUBLE_EQ(theorem1_failure_bound(4, 0, 2, 16), 1.0 * 3 * 2 / 65536.0);
}

TEST(Certify, RepeatedRandomSchemesVirtuallyAlwaysPass) {
  const graph::digraph g = graph::complete(5);
  rng seeds(2);
  int pass = 0;
  for (int i = 0; i < 20; ++i) {
    const coding_scheme cs = coding_scheme::generate(g, 2, seeds.next_u64());
    if (certify_coding(g, 1, dispute_record{}, cs).ok) ++pass;
  }
  EXPECT_EQ(pass, 20);
}

TEST(CertifyDowndate, AgreesWithOracleOnRegistryClassTopologies) {
  // The downdate certifier must produce the identical verdict AND the
  // identical failing-subgraph list (same enumeration order) as the
  // independent per-H eliminations, on both dense and sparse topologies.
  rng rand(31);
  std::vector<std::pair<graph::digraph, int>> cases;
  cases.emplace_back(graph::complete(7, 2), 1);
  cases.emplace_back(graph::complete(7, 1), 2);
  cases.emplace_back(graph::hypercube(3, 2), 1);
  cases.emplace_back(graph::clustered_wan(3, 3, 4, 1), 1);
  cases.emplace_back(graph::paper_fig1a(), 1);
  cases.emplace_back(graph::random_regular(8, 4, 1, 3, rand), 1);
  for (const auto& [g, f] : cases) {
    const graph::capacity_t uk = compute_uk(g, f, dispute_record{});
    for (int rho : {static_cast<int>(compute_rho(uk)),
                    static_cast<int>(compute_rho(uk)) + 4}) {
      const coding_scheme cs = coding_scheme::generate(g, rho, 0xabc);
      const certification naive = oracle::certify_per_h(g, f, dispute_record{}, cs);
      const certification batched = certify_coding(g, f, dispute_record{}, cs);
      EXPECT_EQ(naive.ok, batched.ok) << "n=" << g.universe() << " rho=" << rho;
      EXPECT_EQ(naive.failing, batched.failing)
          << "n=" << g.universe() << " rho=" << rho;
    }
  }
}

TEST(CertifyDowndate, AgreesWithOracleUnderDisputes) {
  rng rand(57);
  for (int trial = 0; trial < 40; ++trial) {
    graph::digraph g = graph::erdos_renyi(6 + static_cast<int>(rand.below(3)), 0.5,
                                          1, 3, rand);
    dispute_record disputes;
    const auto nodes = g.active_nodes();
    const graph::node_id a = nodes[rand.below(nodes.size())];
    const graph::node_id b = nodes[rand.below(nodes.size())];
    if (a != b) {
      disputes.add_dispute(a, b);
      g.remove_edge_pair(a, b);
    }
    const int f = 1 + static_cast<int>(rand.below(2));
    if (g.universe() < 3 * f + 1) continue;
    const auto uk = compute_uk(g, f, disputes);
    const coding_scheme cs =
        coding_scheme::generate(g, static_cast<int>(compute_rho(uk)) + 2, trial);
    const certification naive = oracle::certify_per_h(g, f, disputes, cs);
    const certification batched = certify_coding(g, f, disputes, cs);
    EXPECT_EQ(naive.ok, batched.ok) << "trial " << trial;
    EXPECT_EQ(naive.failing, batched.failing) << "trial " << trial;
  }
}

TEST(CertifyDowndate, LeaveOneOutAgreesWithOracleWithInactiveNodesAndDisputes) {
  // The leave-one-out shape (active == target + 1) is reached both by f = 1
  // on a fully active graph and by larger f after convictions shrank the
  // active set. Verdicts, failing lists, AND their order must match the
  // per-H oracle in every combination of disputes / inactive nodes /
  // over-large rho.
  rng rand(91);
  for (int trial = 0; trial < 30; ++trial) {
    graph::digraph g =
        graph::erdos_renyi(7 + static_cast<int>(rand.below(2)), 0.6, 1, 2, rand);
    int f = 1;
    if (trial % 3 == 1) {
      // Convict one node: active = n - 1 == (n - 2) + 1, the f = 2 shape.
      g.remove_node(g.active_nodes()[rand.below(g.active_nodes().size())]);
      f = 2;
    }
    dispute_record disputes;
    if (trial % 2 == 1) {
      const auto nodes = g.active_nodes();
      const graph::node_id a = nodes[rand.below(nodes.size())];
      const graph::node_id b = nodes[rand.below(nodes.size())];
      if (a != b) {
        disputes.add_dispute(a, b);
        g.remove_edge_pair(a, b);
      }
    }
    const auto uk = compute_uk(g, f, disputes);
    if (uk < 2) continue;
    const int rho = static_cast<int>(compute_rho(uk)) + (trial % 5 == 0 ? 4 : 0);
    const coding_scheme cs = coding_scheme::generate(g, rho, 1000 + trial);
    obs::collector col;
    certification naive, batched;
    {
      obs::scoped_collector scope(&col);
      naive = oracle::certify_per_h(g, f, disputes, cs);
      batched = certify_coding(g, f, disputes, cs);
    }
    ASSERT_EQ(g.active_count(), g.universe() - f + 1);  // the LOO shape
    EXPECT_EQ(naive.ok, batched.ok) << "trial " << trial;
    EXPECT_EQ(naive.failing, batched.failing) << "trial " << trial;
    // One downdate per Omega_k member.
    EXPECT_EQ(col.value(obs::counter::cert_loo_downdates),
              col.value(obs::counter::cert_subgraphs))
        << "trial " << trial;
    EXPECT_EQ(col.value(obs::counter::cert_subgraphs),
              omega_subgraphs(g, f, disputes).size())
        << "trial " << trial;
  }
}

TEST(CertifyDowndate, LeaveOneOutDisjointDisputesEmptyOmegaShortCircuits) {
  // Two disjoint disputed pairs leave no leave-one-out member (no single
  // node covers both pairs): Omega_k is empty, certification is vacuously
  // ok, and the downdate path must notice BEFORE paying for an elimination.
  const graph::digraph g = graph::complete(6);
  dispute_record disputes;
  disputes.add_dispute(0, 1);
  disputes.add_dispute(2, 3);
  const coding_scheme cs = coding_scheme::generate(g, 2, 17);
  EXPECT_TRUE(omega_subgraphs(g, 1, disputes).empty());
  obs::collector col;
  certification c;
  {
    obs::scoped_collector scope(&col);
    c = certify_coding(g, 1, disputes, cs);
  }
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(col.value(obs::counter::cert_subgraphs), 0u);
  EXPECT_EQ(col.value(obs::counter::cert_loo_downdates), 0u);
  EXPECT_EQ(col.value(obs::counter::gf_rows_eliminated), 0u);
}

TEST(CertifyEstimate, TracksMeasuredWordsWithinBoundedFactor) {
  // certify_cost_estimate prices certify_coding's one all-blocks
  // elimination plus one corner rank per member, in the unit the kernels
  // count (GF words presented to axpy/scale). The estimate gates
  // certification in core::session, so a model that drifts from the
  // measured cost silently mis-gates presets — this pins est/measured into
  // [1/6, 6] across leave-one-out shapes (f = 1), wider removed sets
  // (f = 2, 3), dense and sparse topologies, and over-large rho. The bound
  // is deliberately loose (the model ignores fill-in sparsity and early
  // exits) but one-sided drift by an order of magnitude fails it.
  struct probe_case {
    const char* name;
    graph::digraph g;
    int f;
    int extra_rho;
  };
  rng rand(31);
  std::vector<probe_case> cases;
  cases.push_back({"fig1a/f1", graph::paper_fig1a(), 1, 0});
  cases.push_back({"fig1b/f1", graph::paper_fig1b(), 1, 0});
  cases.push_back({"complete7cap2/f1", graph::complete(7, 2), 1, 0});
  cases.push_back({"complete7cap2/f1/rho+4", graph::complete(7, 2), 1, 4});
  cases.push_back({"complete7/f2", graph::complete(7, 1), 2, 0});
  cases.push_back({"complete6/f2", graph::complete(6, 1), 2, 0});
  cases.push_back({"complete10/f3", graph::complete(10, 1), 3, 0});
  cases.push_back({"hypercube3/f1", graph::hypercube(3, 2), 1, 0});
  cases.push_back({"hypercube4/f1", graph::hypercube(4, 1), 1, 0});
  cases.push_back({"hypercube4/f2", graph::hypercube(4, 1), 2, 0});
  cases.push_back({"wan3x3/f1", graph::clustered_wan(3, 3, 4, 1), 1, 0});
  cases.push_back({"wan4x4/f2", graph::clustered_wan(4, 4, 4, 1), 2, 0});
  cases.push_back(
      {"regular8d4/f1", graph::random_regular(8, 4, 1, 3, rand), 1, 0});
  cases.push_back({"complete24/f1", graph::complete(24, 1), 1, 0});  // blocked
  for (const probe_case& c : cases) {
    const dispute_record none;
    const graph::capacity_t uk = compute_uk(c.g, c.f, none);
    const int rho = static_cast<int>(compute_rho(uk)) + c.extra_rho;
    const auto omega = omega_subgraphs(c.g, c.f, none);
    ASSERT_FALSE(omega.empty()) << c.name;
    const coding_scheme cs = coding_scheme::generate(c.g, rho, 42);
    obs::collector col;
    {
      obs::scoped_collector scope(&col);
      certify_coding(c.g, c.f, none, cs);
    }
    const std::uint64_t measured = col.value(obs::counter::gf_axpy_words) +
                                   col.value(obs::counter::gf_scale_words);
    const std::uint64_t est = certify_cost_estimate(c.g, omega, rho);
    ASSERT_GT(measured, 0u) << c.name;
    const double ratio = static_cast<double>(est) / static_cast<double>(measured);
    EXPECT_GE(ratio, 1.0 / 6.0) << c.name << " est=" << est << " meas=" << measured;
    EXPECT_LE(ratio, 6.0) << c.name << " est=" << est << " meas=" << measured;
  }
}

TEST(CertifyDowndate, DetectsDisconnectedSubgraphs) {
  // A cut vertex makes some H in Omega_1 disconnected; its C_H cannot have
  // full row rank (nothing links the components), and both certifiers must
  // name exactly the same failing subgraphs.
  graph::digraph g(5);
  for (graph::node_id v : {0, 1}) {
    g.add_bidirectional(v, 2, 1);
    g.add_bidirectional(v, (v + 1) % 2, 1);
  }
  for (graph::node_id v : {3, 4}) {
    g.add_bidirectional(v, 2, 1);
    g.add_bidirectional(v, v == 3 ? 4 : 3, 1);
  }
  const coding_scheme cs = coding_scheme::generate(g, 1, 77);
  const certification naive = oracle::certify_per_h(g, 1, dispute_record{}, cs);
  const certification batched = certify_coding(g, 1, dispute_record{}, cs);
  EXPECT_FALSE(batched.ok);
  EXPECT_EQ(naive.ok, batched.ok);
  EXPECT_EQ(naive.failing, batched.failing);
}

}  // namespace
}  // namespace nab::core
