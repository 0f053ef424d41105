#include "runtime/scenario.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/certify.hpp"
#include "core/omega.hpp"
#include "core/omega_cache.hpp"
#include "graph/connectivity.hpp"
#include "runtime/runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::runtime {
namespace {

std::vector<scenario> all_scenarios() { return select_scenarios("all"); }

TEST(Registry, CatalogIsLargeEnoughForTheSweepContract) {
  // The acceptance bar: a sweep of >= 20 distinct scenario configurations.
  EXPECT_GE(all_scenarios().size(), 20u);
  EXPECT_GE(registry().size(), 10u);
}

TEST(Registry, FamilyNamesAndScenarioNamesAreUnique) {
  std::set<std::string> family_names;
  for (const scenario_family& fam : registry())
    EXPECT_TRUE(family_names.insert(fam.name).second) << fam.name;
  std::set<std::string> names;
  for (const scenario& s : all_scenarios())
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario " << s.name;
}

TEST(Registry, SelectByNameMatchesExpandAndRejectsUnknown) {
  const scenario_family* fam = find_family("complete");
  ASSERT_NE(fam, nullptr);
  EXPECT_EQ(select_scenarios("complete"), fam->expand());
  // Comma lists concatenate in order.
  const auto both = select_scenarios("fig1,fig2");
  EXPECT_EQ(both.size(),
            find_family("fig1")->expand().size() + find_family("fig2")->expand().size());
  EXPECT_THROW(select_scenarios("no-such-family"), nab::error);
  EXPECT_EQ(find_family("no-such-family"), nullptr);
}

TEST(Registry, EveryScenarioRoundTripsThroughParams) {
  for (const scenario& s : all_scenarios()) {
    const auto params = scenario_to_params(s);
    const scenario back = scenario_from_params(params);
    EXPECT_EQ(back, s) << s.name;
  }
}

TEST(Registry, FromParamsRejectsMissingAndMalformedKeys) {
  auto params = scenario_to_params(all_scenarios().front());
  auto missing = params;
  missing.erase("topology");
  EXPECT_THROW(scenario_from_params(missing), nab::error);
  auto bad = params;
  bad["adversary"] = "quantum";
  EXPECT_THROW(scenario_from_params(bad), nab::error);
  auto bad_number = params;
  bad_number["n"] = "abc";
  EXPECT_THROW(scenario_from_params(bad_number), nab::error);
  auto huge = params;
  huge["cap_lo"] = "99999999999999999999999999";
  EXPECT_THROW(scenario_from_params(huge), nab::error);
}

TEST(Registry, EnumStringsRoundTrip) {
  for (auto k : {topology_kind::complete, topology_kind::fig1a, topology_kind::fig1b,
                 topology_kind::fig2, topology_kind::ring, topology_kind::erdos_renyi,
                 topology_kind::random_regular, topology_kind::hypercube,
                 topology_kind::clustered_wan, topology_kind::dumbbell,
                 topology_kind::weak_link, topology_kind::path_of_cliques})
    EXPECT_EQ(topology_kind_from_string(to_string(k)), k);
  for (auto k : {adversary_kind::honest, adversary_kind::p1_garble,
                 adversary_kind::equivocate, adversary_kind::p2_lie,
                 adversary_kind::false_flag, adversary_kind::stealth,
                 adversary_kind::dispute_farm, adversary_kind::chaos})
    EXPECT_EQ(adversary_kind_from_string(to_string(k)), k);
}

TEST(Registry, TopologyNodesMatchesBuiltGraph) {
  rng rand(7);
  for (const scenario& s : all_scenarios()) {
    const graph::digraph g = build_topology(s.topology, rand);
    EXPECT_EQ(g.universe(), topology_nodes(s.topology)) << s.name;
  }
}

TEST(Registry, PresetTopologiesSupportTheirFaultBudgets) {
  // Deterministic presets must satisfy n >= 3f+1 and connectivity >= 2f+1
  // outright; random presets get the runner's reseed loop, so they are only
  // required to declare feasible parameters (d >= 2f+1 etc.). Each distinct
  // (topology, f) pair is checked once — the adversary/word axes multiply
  // scenarios without changing the graph — and the 2f+1 bound uses the
  // capped decision check so the frontier presets (K_64, n = 128) don't pay
  // for exact connectivity they never rely on.
  rng rand(11);
  std::set<std::string> seen;
  for (const scenario& s : all_scenarios()) {
    if (s.topology.kind == topology_kind::erdos_renyi ||
        s.topology.kind == topology_kind::random_regular)
      continue;
    const auto& t = s.topology;
    const std::string key = to_string(t.kind) + ":" + std::to_string(t.n) + ":" +
                            std::to_string(t.param_a) + ":" +
                            std::to_string(t.param_b) + ":" +
                            std::to_string(t.cap_lo) + ":" +
                            std::to_string(t.cap_hi) + ":" + std::to_string(s.f);
    if (!seen.insert(key).second) continue;
    const graph::digraph g = build_topology(s.topology, rand);
    EXPECT_GE(g.universe(), 3 * s.f + 1) << s.name;
    if (s.f > 0) {
      EXPECT_TRUE(graph::global_vertex_connectivity_at_least(g, 2 * s.f + 1))
          << s.name;
    }
  }
}

TEST(Registry, ScalingPresetsExist) {
  // The K_16-class presets this PR unlocks must stay in the catalog.
  for (const char* name : {"k16_dense", "hypercube_d5", "wan_5cluster"})
    EXPECT_NE(find_family(name), nullptr) << name;
  EXPECT_EQ(find_family("k16_dense")->expand().front().topology.n, 16);
  EXPECT_EQ(topology_nodes(find_family("hypercube_d5")->expand().front().topology), 32);
  EXPECT_EQ(topology_nodes(find_family("wan_5cluster")->expand().front().topology), 20);
}

TEST(Registry, N64PresetsPinTheCollapsedClaimBackend) {
  // The n = 64 families exist because the collapsed backend makes their
  // dispute phases polynomial; they must stay pinned to it and keep the
  // raised certification gate that lets the rank checks run at that size.
  for (const char* name : {"k64_dense", "hypercube_d6"}) {
    const scenario_family* fam = find_family(name);
    ASSERT_NE(fam, nullptr) << name;
    for (const scenario& s : fam->expand()) {
      EXPECT_EQ(topology_nodes(s.topology), 64) << s.name;
      EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed) << s.name;
      EXPECT_GT(s.certify_cost_limit, 1'000'000'000u) << s.name;
    }
  }
  // The backend ablation sweeps both engines on one topology.
  const scenario_family* ablation = find_family("ablation-claims");
  ASSERT_NE(ablation, nullptr);
  std::set<bb::claim_backend> seen;
  for (const scenario& s : ablation->expand()) seen.insert(s.claim_backend);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Registry, FrontierPresetsPinTheLeaveOneOutScale) {
  // K_64-complete and the 128-node hypercube exist because the f = 1
  // leave-one-out certifier and the SIMD row kernels make their rank checks
  // affordable; they must keep the shape that guarantees that path (f = 1,
  // collapsed claims) and k64_complete must keep the measured-scale gate
  // (~3.2e10 GF words) that admits its certification.
  const scenario_family* k64c = find_family("k64_complete");
  ASSERT_NE(k64c, nullptr);
  EXPECT_EQ(k64c->certify_cost_limit, 64'000'000'000u);
  for (const scenario& s : k64c->expand()) {
    EXPECT_EQ(s.topology.kind, topology_kind::complete) << s.name;
    EXPECT_EQ(topology_nodes(s.topology), 64) << s.name;
    EXPECT_EQ(s.f, 1) << s.name;
    EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed) << s.name;
  }
  const scenario_family* d7 = find_family("hypercube_d7");
  ASSERT_NE(d7, nullptr);
  for (const scenario& s : d7->expand()) {
    EXPECT_EQ(topology_nodes(s.topology), 128) << s.name;
    EXPECT_EQ(s.f, 1) << s.name;
    EXPECT_EQ(s.claim_backend, bb::claim_backend::collapsed) << s.name;
  }
}

TEST(Registry, EveryPresetStillCertifies) {
  // The session trusts Theorem 1 without a word when the cached
  // certify_cost_estimate exceeds certify_cost_limit, so a preset that
  // outgrows its limit stops certifying silently. Every distinct
  // (topology, f, limit) in the catalog must pass the session's own gate —
  // the omega_cache analysis it reads (random topologies are built from a
  // fixed seed, like the other sweeps) — and the first run of every family
  // small enough to execute here must show the certifier running: one
  // downdate per member.
  auto& cache = core::omega_cache::instance();
  rng rand(11);
  std::set<std::string> seen;
  for (const scenario& s : all_scenarios()) {
    const auto& t = s.topology;
    const std::string key = to_string(t.kind) + ":" + std::to_string(t.n) + ":" +
                            std::to_string(t.param_a) + ":" +
                            std::to_string(t.param_b) + ":" +
                            std::to_string(t.cap_lo) + ":" +
                            std::to_string(t.cap_hi) + ":" + std::to_string(s.f) +
                            ":" + std::to_string(s.certify_cost_limit);
    if (!seen.insert(key).second) continue;
    const graph::digraph g = build_topology(t, rand);
    EXPECT_LE(cache.analyze(g, s.f, core::dispute_record{})->certify_cost,
              s.certify_cost_limit)
        << s.name;
  }
  for (const scenario_family& fam : registry()) {
    const std::vector<scenario> runs = fam.expand();
    ASSERT_FALSE(runs.empty()) << fam.name;
    const scenario& s = runs.front();
    if (topology_nodes(s.topology) > 32) continue;
    const run_record r = execute_scenario(s, 0, 11);
    ASSERT_TRUE(r.ok()) << s.name;
    EXPECT_GT(r.cert_subgraphs, 0u) << s.name;
    EXPECT_EQ(r.cert_loo_downdates, r.cert_subgraphs) << s.name;
  }
}

TEST(Registry, AblationFlagsSpansThePhaseKingBoundary) {
  // The flag ablation must run both phase-king variants: a preset with
  // 3f < n <= 4f (three-round phases) and one with n > 4f (two-round).
  const scenario_family* fam = find_family("ablation-flags");
  ASSERT_NE(fam, nullptr);
  bool three_round = false, two_round = false;
  for (const scenario& s : fam->expand()) {
    const int n = topology_nodes(s.topology);
    ASSERT_GT(n, 3 * s.f) << s.name;
    (n <= 4 * s.f ? three_round : two_round) = true;
  }
  EXPECT_TRUE(three_round);
  EXPECT_TRUE(two_round);
}

TEST(Registry, ClaimBackendStringsRoundTrip) {
  for (auto b : {bb::claim_backend::phase_king, bb::claim_backend::collapsed})
    EXPECT_EQ(claim_backend_from_string(to_string(b)), b);
  for (const char* gone : {"telepathy", "eig", "auto"})
    EXPECT_THROW(claim_backend_from_string(gone), nab::error);
}

TEST(Registry, TraceCaptureFillsDeterministicTrafficMatrices) {
  // fleet --trace rides on execute_scenario's capture flag: the traffic
  // matrix must be filled, workload-determined (identical across repeats),
  // and absent without the flag so BENCH_runtime.json stays byte-stable.
  const scenario s = select_scenarios("complete").front();
  const run_record traced = execute_scenario(s, 0, 11, /*capture_trace=*/true);
  ASSERT_EQ(traced.traffic.size(),
            static_cast<std::size_t>(traced.nodes) * traced.nodes);
  std::uint64_t total = 0;
  for (std::uint64_t bits : traced.traffic) total += bits;
  EXPECT_GT(total, 0u);

  const run_record again = execute_scenario(s, 0, 11, /*capture_trace=*/true);
  EXPECT_EQ(traced, again);

  run_record untraced = execute_scenario(s, 0, 11);
  EXPECT_TRUE(untraced.traffic.empty());
  // Everything but the trace matrix matches the traced run.
  untraced.traffic = traced.traffic;
  EXPECT_EQ(untraced, traced);
}

TEST(Registry, PipelinedPropagationIsARunnableAxis) {
  // ablation-propagation now carries the Appendix-D pipelined mode; the
  // runner must execute it via core::run_pipelined, fill the pipeline
  // fields, and stay deterministic.
  const auto sweep = select_scenarios("ablation-propagation");
  const scenario* pipelined = nullptr;
  for (const scenario& s : sweep)
    if (s.propagation == core::propagation_mode::pipelined) pipelined = &s;
  ASSERT_NE(pipelined, nullptr);
  EXPECT_EQ(propagation_from_string("pipelined"), core::propagation_mode::pipelined);

  const run_record rec = execute_scenario(*pipelined, 2, 11);
  EXPECT_TRUE(rec.ok()) << rec.scenario;
  EXPECT_GT(rec.pipeline_depth, 1);
  EXPECT_GT(rec.pipeline_speedup, 1.0);  // pipelining must beat sequential
  EXPECT_GT(rec.throughput, 0.0);
  EXPECT_TRUE(rec.corrupt.empty());  // Appendix-D regime is fault-free
  EXPECT_EQ(rec, execute_scenario(*pipelined, 2, 11));

  // The non-pipelined siblings keep pipeline fields zeroed.
  for (const scenario& s : sweep) {
    if (s.propagation == core::propagation_mode::pipelined) continue;
    const run_record other = execute_scenario(s, 0, 11);
    EXPECT_EQ(other.pipeline_depth, 0) << other.scenario;
    EXPECT_EQ(other.pipeline_speedup, 0.0) << other.scenario;
  }

  // Pipelined runs are fault-free by construction; pairing the axis with a
  // non-honest adversary must be rejected, not silently ignored.
  scenario bad = *pipelined;
  bad.adversary = adversary_kind::stealth;
  EXPECT_THROW(execute_scenario(bad, 0, 11), nab::error);
}

}  // namespace
}  // namespace nab::runtime
