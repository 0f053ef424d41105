// Property test for the claim-broadcast backends. At the claim layer, the
// batched phase king and the collapsed Bracha-style backend must decide
// exactly what the EIG oracle (eig_oracle.hpp) decides, on both sides of the
// phase king's two/three-round boundary. Whole NAB sessions run on either
// backend must produce byte-identical dispute sets, convictions, and agreed
// values — across every registry preset topology and across dispute-forcing
// adversaries. Only the DC1 wire cost may differ, and at n = 32, f = 2 (the
// documented hypercube_d5 bottleneck) the collapsed backend must cut traced
// claim bytes by at least 10x below the oracle's.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "bb/claim_bcast.hpp"
#include "core/omega_cache.hpp"
#include "core/session.hpp"
#include "core/strategies.hpp"
#include "eig_oracle.hpp"
#include "graph/generators.hpp"
#include "runtime/scenario.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace nab {
namespace {

core::session_run run_one(const graph::digraph& g, int f,
                          const std::vector<graph::node_id>& corrupt,
                          core::nab_adversary* adv, bb::claim_backend backend,
                          int q, std::size_t words) {
  core::session_config cfg;
  cfg.g = g;
  cfg.f = f;
  cfg.claim_backend = backend;
  sim::fault_set faults(g.universe(), corrupt);
  return core::run_session(std::move(cfg), faults, adv, q, words, /*seed=*/0xfeed);
}

/// The byte-identity bar: everything dispute control decides must match.
/// Simulated time and wire bits are exactly what the backends are allowed
/// to change, so they are deliberately NOT compared.
void expect_same_verdicts(const core::session_run& a, const core::session_run& b,
                          const std::string& ctx) {
  ASSERT_EQ(a.reports.size(), b.reports.size()) << ctx;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    const std::string rctx = ctx + " instance " + std::to_string(i);
    EXPECT_EQ(ra.outputs, rb.outputs) << rctx;
    EXPECT_EQ(ra.mismatch_announced, rb.mismatch_announced) << rctx;
    EXPECT_EQ(ra.dispute_phase_run, rb.dispute_phase_run) << rctx;
    EXPECT_EQ(ra.new_disputes, rb.new_disputes) << rctx;
    EXPECT_EQ(ra.newly_convicted, rb.newly_convicted) << rctx;
    EXPECT_EQ(ra.agreement, rb.agreement) << rctx;
    EXPECT_EQ(ra.validity, rb.validity) << rctx;
  }
  EXPECT_EQ(a.disputes.pairs(), b.disputes.pairs()) << ctx;
  EXPECT_EQ(a.disputes.convicted(), b.disputes.convicted()) << ctx;
}

/// Registry presets as unique (topology, f) pairs, mirroring
/// test_arena_equivalence: f capped to 1 beyond 16 nodes and the n >= 64
/// presets skipped, which keeps the phase-king backend's full-transcript
/// exchange rounds cheap (the collapsed backend's own coverage at n = 64
/// lives in the claim_bcast unit tests and the k64/hypercube_d6 presets).
std::vector<std::pair<graph::digraph, int>> oracle_sized_topologies() {
  std::vector<std::pair<graph::digraph, int>> out;
  std::map<std::string, bool> seen;
  for (const auto& family : runtime::registry()) {
    for (const auto& sc : family.expand()) {
      const auto& t = sc.topology;
      if (runtime::topology_nodes(t) > 40) continue;
      const int f = runtime::topology_nodes(t) > 16 ? std::min(sc.f, 1) : sc.f;
      std::ostringstream key;
      key << runtime::to_string(t.kind) << ':' << t.n << ':' << t.param_a << ':'
          << t.param_b << ':' << t.cap_lo << ':' << t.cap_hi << ':' << t.p << ':'
          << f;
      if (seen.emplace(key.str(), true).second == false) continue;
      bool added = false;
      for (int attempt = 0; attempt < 32 && !added; ++attempt) {
        rng rand(0xe901u + static_cast<std::uint64_t>(attempt));
        graph::digraph g = runtime::build_topology(t, rand);
        if (g.universe() >= 3 * f + 1 &&
            core::omega_cache::instance().connectivity_at_least(g, 2 * f + 1)) {
          out.emplace_back(std::move(g), f);
          added = true;
        }
      }
    }
  }
  return out;
}

TEST(ClaimBackendEquivalence, VerdictsMatchAcrossRegistryPresets) {
  const auto presets = oracle_sized_topologies();
  ASSERT_GT(presets.size(), 10u);  // the registry really was swept
  for (const auto& [g, f] : presets) {
    // A false flag from the first non-source node (when the budget allows)
    // forces a dispute phase in every instance, so DC1 is actually exercised
    // on every preset rather than only on the adversarial families.
    std::vector<graph::node_id> corrupt;
    const auto active = g.active_nodes();
    if (f > 0 && active.size() > 1) corrupt.push_back(active[1]);
    const std::string ctx = "n=" + std::to_string(g.universe()) +
                            " f=" + std::to_string(f);

    core::false_flagger adv_a, adv_b;
    const core::session_run pk = run_one(
        g, f, corrupt, corrupt.empty() ? nullptr : &adv_a,
        bb::claim_backend::phase_king, /*q=*/2, /*words=*/8);
    const core::session_run collapsed = run_one(
        g, f, corrupt, corrupt.empty() ? nullptr : &adv_b,
        bb::claim_backend::collapsed, /*q=*/2, /*words=*/8);
    expect_same_verdicts(pk, collapsed, ctx + " phase_king-vs-collapsed");
  }
}

/// Distinct multi-word claims, one per active node; corrupt claimants'
/// inputs are their lies, so the oracle and both backends must agree on
/// them exactly while corrupt nodes behave honestly inside BB.
std::vector<bb::claim_instance> distinct_claims(const graph::digraph& g) {
  std::vector<bb::claim_instance> out;
  for (graph::node_id v : g.active_nodes()) {
    bb::claim_instance inst;
    inst.source = v;
    inst.input.assign(static_cast<std::size_t>(v % 3), static_cast<std::uint64_t>(v) * 77);
    inst.value_bits = 64 * 3 + 8;
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(ClaimBackendEquivalence, BackendsDecideWhatTheEigOracleDecides) {
  graph::digraph holed = graph::complete(7);
  holed.remove_edge_pair(0, 3);
  const std::vector<std::tuple<std::string, graph::digraph, int, std::vector<graph::node_id>>>
      cases = {{"K4 f1", graph::complete(4), 1, {2}},
               {"K5 f1", graph::complete(5), 1, {0}},
               {"K7 f2", graph::complete(7), 2, {1, 5}},
               {"K7holes f2", holed, 2, {0, 6}},
               {"K9 f2", graph::complete(9), 2, {2, 7}},
               {"K10 f3", graph::complete(10), 3, {0, 4, 9}},
               {"Q4 f1", graph::hypercube(4), 1, {5}}};
  for (const auto& [name, g, f, corrupt] : cases) {
    const auto instances = distinct_claims(g);
    const auto decide = [&](auto&& broadcast) {
      sim::network net(g);
      bb::channel_plan plan(g, f, core::omega_cache::instance().channel_routes_for(g, f));
      const sim::fault_set faults(g.universe(), corrupt);
      bb::claim_outcome out = broadcast(plan, net, faults);
      // Corrupt nodes' own decisions carry no meaning.
      for (auto& per_node : out.agreed)
        for (graph::node_id v : corrupt) per_node[static_cast<std::size_t>(v)].clear();
      return out.agreed;
    };
    const auto oracle = decide([&](auto& plan, auto& net, const auto& faults) {
      return bb::eig_claims(plan, net, faults, instances, f);
    });
    for (bb::claim_backend backend :
         {bb::claim_backend::phase_king, bb::claim_backend::collapsed}) {
      EXPECT_EQ(decide([&](auto& plan, auto& net, const auto& faults) {
                  return bb::broadcast_claims(backend, plan, net, faults, instances, f);
                }),
                oracle)
          << name << " backend " << runtime::to_string(backend);
    }
  }
}

TEST(ClaimBackendEquivalence, VerdictsMatchAcrossAdversaryStrategies) {
  const graph::digraph k9 = graph::complete(9);

  // Stealth coalition: the slowest-progress dispute farmer (f(f+1) regime).
  {
    core::stealth_disputer a, b;
    const auto col = run_one(k9, 2, {2, 5}, &a, bb::claim_backend::collapsed, 6, 16);
    const auto pk = run_one(k9, 2, {2, 5}, &b, bb::claim_backend::phase_king, 6, 16);
    expect_same_verdicts(pk, col, "stealth phase_king-vs-collapsed");
    EXPECT_FALSE(pk.disputes.pairs().empty());
  }

  // Chaos: seeded fuzzing through every hook — the widest claim churn.
  {
    core::chaos_adversary a(0xc4a05, 0.7), b(0xc4a05, 0.7);
    const auto pk = run_one(k9, 2, {1, 4}, &a, bb::claim_backend::phase_king, 5, 16);
    const auto col = run_one(k9, 2, {1, 4}, &b, bb::claim_backend::collapsed, 5, 16);
    expect_same_verdicts(pk, col, "chaos phase_king-vs-collapsed");
  }

  // Sparse emulated channels (majority-vote route path) with claim forging.
  // claim_forger only lies in Phase 3, so it also cries MISMATCH to get a
  // dispute phase running in the first place.
  {
    class flagging_forger : public core::claim_forger {
     public:
      using core::claim_forger::claim_forger;
      bool phase2_flag(graph::node_id, bool) override { return true; }
    };
    graph::digraph g = graph::complete(6, 2);
    g.remove_edge_pair(0, 3);
    flagging_forger a(1), b(1);
    const auto pk = run_one(g, 1, {4}, &a, bb::claim_backend::phase_king, 4, 16);
    const auto col = run_one(g, 1, {4}, &b, bb::claim_backend::collapsed, 4, 16);
    expect_same_verdicts(pk, col, "forger/emulated phase_king-vs-collapsed");
    EXPECT_FALSE(pk.disputes.pairs().empty());
  }
}

TEST(ClaimBackendEquivalence, F3DisputeEvidenceMatchesAndDc4Convicts) {
  // f = 3 (K_13): DC4's cover intersection must behave identically on both
  // backends' dispute sets — the stealth strategy builds exactly the star
  // patterns whose explaining-set intersection convicts.
  const graph::digraph k13 = graph::complete(13);
  core::stealth_disputer a, b;
  const auto pk = run_one(k13, 3, {3, 7, 11}, &a, bb::claim_backend::phase_king, 8, 8);
  const auto col = run_one(k13, 3, {3, 7, 11}, &b, bb::claim_backend::collapsed, 8, 8);
  expect_same_verdicts(pk, col, "f3 stealth");
  EXPECT_FALSE(col.disputes.pairs().empty());
  // Dispute soundness at f = 3: every pair touches a corrupt node, every
  // conviction is corrupt (DC4 never convicts an honest node).
  sim::fault_set faults(13, {3, 7, 11});
  for (const auto& [x, y] : col.disputes.pairs())
    EXPECT_TRUE(faults.is_corrupt(x) || faults.is_corrupt(y))
        << "{" << x << "," << y << "}";
  for (graph::node_id v : col.disputes.convicted())
    EXPECT_TRUE(faults.is_corrupt(v)) << v;
}

TEST(ClaimBackendEquivalence, TracedClaimBytesDropTenfoldAtN32F2) {
  // The acceptance bar: at n = 32, f = 2 (hypercube_d5's documented EIG
  // bottleneck), the collapsed backend's DC1 claim bytes must be at least
  // 10x below the oracle's on the same claims, measured from the ambient
  // traffic trace via the claim tag — asserted, not eyeballed.
  const graph::digraph q5 = graph::hypercube(5, 2);
  const sim::fault_set faults(q5.universe(), {3, 17});
  std::vector<bb::claim_instance> instances;
  for (graph::node_id v : q5.active_nodes()) {
    bb::claim_instance inst;
    inst.source = v;
    inst.input.assign(16, static_cast<std::uint64_t>(v));
    inst.value_bits = 16 * 64;
    instances.push_back(std::move(inst));
  }
  const auto measure = [&](bool oracle) {
    sim::trace t;
    sim::scoped_ambient_trace scope(&t);
    sim::network net(q5);
    bb::channel_plan plan(q5, 2, core::omega_cache::instance().channel_routes_for(q5, 2));
    if (oracle) {
      bb::eig_claims(plan, net, faults, instances, 2);
    } else {
      bb::broadcast_claims(bb::claim_backend::collapsed, plan, net, faults, instances, 2);
    }
    return t.tag_total(bb::claim_traffic_tag);
  };
  const std::uint64_t eig_bits = measure(true);
  const std::uint64_t collapsed_bits = measure(false);
  ASSERT_GT(collapsed_bits, 0u);
  EXPECT_GE(eig_bits, 10 * collapsed_bits)
      << "eig=" << eig_bits << " collapsed=" << collapsed_bits;

  // In a session, the per-phase accounting and the trace's tag accounting
  // are two independent measurements of the same DC1 traffic.
  sim::trace t;
  sim::scoped_ambient_trace scope(&t);
  core::phase1_corruptor adv;
  const core::session_run run =
      run_one(q5, 2, {3, 17}, &adv, bb::claim_backend::collapsed, /*q=*/1, /*words=*/16);
  EXPECT_EQ(run.stats.dispute_phases, 1);
  EXPECT_EQ(t.tag_total(bb::claim_traffic_tag), run.stats.claim_bits);
}

}  // namespace
}  // namespace nab
