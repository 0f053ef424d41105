// Property test for the claim broadcast. At the claim layer, the collapsed
// Bracha-style engine must decide exactly what the EIG oracle
// (eig_oracle.hpp) decides, on both sides of the phase king's
// two/three-round boundary and on emulated channels. Whole NAB sessions
// must stay sound with it — agreement, validity, every dispute pair touching
// a corrupt node, every conviction corrupt — across every registry preset
// topology and across dispute-forcing adversaries. At n = 32, f = 2 (the
// documented hypercube_d5 bottleneck) it must cut traced claim bytes by at
// least 10x below the oracle's.

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
                          core::nab_adversary* adv, int q, std::size_t words) {
  core::session_config cfg;
  cfg.g = g;
  cfg.f = f;
  sim::fault_set faults(g.universe(), corrupt);
  return core::run_session(std::move(cfg), faults, adv, q, words, /*seed=*/0xfeed);
}

/// The soundness bar for a session whose dispute phases ran the claim
/// broadcast: every instance agreed and was valid, and the dispute record
/// blames only corrupt nodes.
void expect_sound(const core::session_run& run, const std::vector<graph::node_id>& corrupt,
                  int universe, const std::string& ctx) {
  for (std::size_t i = 0; i < run.reports.size(); ++i) {
    EXPECT_TRUE(run.reports[i].agreement) << ctx << " instance " << i;
    EXPECT_TRUE(run.reports[i].validity) << ctx << " instance " << i;
  }
  const sim::fault_set faults(universe, corrupt);
  for (const auto& [x, y] : run.disputes.pairs())
    EXPECT_TRUE(faults.is_corrupt(x) || faults.is_corrupt(y))
        << ctx << " {" << x << "," << y << "}";
  for (graph::node_id v : run.disputes.convicted())
    EXPECT_TRUE(faults.is_corrupt(v)) << ctx << " convicted " << v;
}

/// Registry presets as unique (topology, f) pairs, mirroring
/// test_arena_equivalence: f capped to 1 beyond 16 nodes and the n >= 64
/// presets skipped (their dispute phases run in the k64/hypercube_d6
/// presets).
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

TEST(ClaimEquivalence, SessionsStaySoundAcrossRegistryPresets) {
  const auto presets = oracle_sized_topologies();
  ASSERT_GT(presets.size(), 10u);  // the registry really was swept
  int disputed = 0;
  for (const auto& [g, f] : presets) {
    // A false flag from the first non-source node (when the budget allows)
    // forces a dispute phase in every instance, so DC1 is actually exercised
    // on every preset rather than only on the adversarial families.
    std::vector<graph::node_id> corrupt;
    const auto active = g.active_nodes();
    if (f > 0 && active.size() > 1) corrupt.push_back(active[1]);
    core::false_flagger adv;
    const core::session_run run =
        run_one(g, f, corrupt, corrupt.empty() ? nullptr : &adv, /*q=*/2, /*words=*/8);
    expect_sound(run, corrupt, g.universe(),
                 "n=" + std::to_string(g.universe()) + " f=" + std::to_string(f));
    if (run.stats.dispute_phases > 0) ++disputed;
  }
  EXPECT_GT(disputed, 10);
}

/// Distinct multi-word claims, one per active node; corrupt claimants'
/// inputs are their lies, so the oracle and the claim broadcast must agree
/// on them exactly while corrupt nodes behave honestly inside BB.
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

TEST(ClaimEquivalence, DecidesWhatTheEigOracleDecides) {
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
    EXPECT_EQ(decide([&](auto& plan, auto& net, const auto& faults) {
                return bb::broadcast_claims(plan, net, faults, instances, f);
              }),
              oracle)
        << name;
  }
}

TEST(ClaimEquivalence, SessionsStaySoundAcrossAdversaryStrategies) {
  const graph::digraph k9 = graph::complete(9);

  // Stealth coalition: the slowest-progress dispute farmer (f(f+1) regime).
  {
    core::stealth_disputer adv;
    const auto run = run_one(k9, 2, {2, 5}, &adv, 6, 16);
    expect_sound(run, {2, 5}, 9, "stealth");
    EXPECT_FALSE(run.disputes.pairs().empty());
  }

  // Chaos: seeded fuzzing through every hook — the widest claim churn.
  {
    core::chaos_adversary adv(0xc4a05, 0.7);
    expect_sound(run_one(k9, 2, {1, 4}, &adv, 5, 16), {1, 4}, 9, "chaos");
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
    flagging_forger adv(1);
    const auto run = run_one(g, 1, {4}, &adv, 4, 16);
    expect_sound(run, {4}, 6, "forger/emulated");
    EXPECT_FALSE(run.disputes.pairs().empty());
  }
}

TEST(ClaimEquivalence, F3DisputeEvidenceIsSoundAndDc4Convicts) {
  // f = 3 (K_13): the stealth strategy builds exactly the star patterns
  // whose explaining-set intersection convicts; DC4 never convicts an
  // honest node.
  const graph::digraph k13 = graph::complete(13);
  core::stealth_disputer adv;
  const auto run = run_one(k13, 3, {3, 7, 11}, &adv, 8, 8);
  expect_sound(run, {3, 7, 11}, 13, "f3 stealth");
  EXPECT_FALSE(run.disputes.pairs().empty());
}

TEST(ClaimEquivalence, TracedClaimBytesDropTenfoldAtN32F2) {
  // The acceptance bar: at n = 32, f = 2 (hypercube_d5's documented EIG
  // bottleneck), the claim broadcast's DC1 claim bytes must be at least
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
      bb::broadcast_claims(plan, net, faults, instances, 2);
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
      run_one(q5, 2, {3, 17}, &adv, /*q=*/1, /*words=*/16);
  EXPECT_EQ(run.stats.dispute_phases, 1);
  EXPECT_EQ(t.tag_total(bb::claim_traffic_tag), run.stats.claim_bits);
}

}  // namespace
}  // namespace nab
