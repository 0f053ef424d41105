// The obs counters' own contracts at the runtime layer: deterministic
// counters actually populate on real runs (a zero gf_ops on a certified
// run means an instrumentation site was lost), they are bit-identical
// between pooled and unpooled sessions, and span capture stays opt-in so
// BENCH_runtime.json is byte-stable.

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "sim/faults.hpp"

namespace nab::runtime {
namespace {

TEST(ObsCounters, PopulateOnACertifiedRun) {
  // fig1 runs on the paper's K7-class graphs: small enough to certify, so
  // every GF kernel family and the certifier counters must all fire.
  const std::vector<scenario> sweep = select_scenarios("fig1");
  ASSERT_FALSE(sweep.empty());
  const run_record r = execute_scenario(sweep.front(), 0, 11);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.gf_ops, 0u);
  EXPECT_EQ(r.gf_ops, r.gf_axpy_words + r.gf_scale_words + r.gf_mul_ops +
                          r.gf_rows_eliminated);
  EXPECT_GT(r.gf_axpy_words, 0u);
  EXPECT_GT(r.gf_rows_eliminated, 0u);
  EXPECT_GT(r.cert_subgraphs, 0u);
  // Every member, including fig1's whole-graph omega (no node left out),
  // is answered by one downdate of the shared elimination.
  EXPECT_EQ(r.cert_loo_downdates, r.cert_subgraphs);
  EXPECT_GT(r.cache_lookups, 0u);
  // fig1's front scenario is honest: no dispute phase ran, so the headroom
  // gauge keeps its -1 "never exercised" sentinel like the quorum gauges
  // (tests/runtime/test_margins.cpp pins the disputed cases).
  ASSERT_EQ(r.dispute_phases, 0);
  EXPECT_EQ(r.margin_dispute_headroom, -1);
  // Phase wall totals are recorded even without span capture.
  EXPECT_FALSE(r.timing.wall_by_phase.empty());
  bool saw_phase1 = false;
  for (const auto& [phase, secs] : r.timing.wall_by_phase) {
    EXPECT_GE(secs, 0.0);
    saw_phase1 = saw_phase1 || phase == "phase1";
  }
  EXPECT_TRUE(saw_phase1);
}

TEST(ObsCounters, CertifierCountsOneDowndatePerSubgraph) {
  // Every Omega member is checked by a rank downdate of the shared full
  // factorization, never by its own re-factorization, so the two counters
  // must advance in lockstep. K7 at f = 1 is the cheapest registry scenario
  // that certifies.
  const std::vector<scenario> sweep = select_scenarios("complete");
  const scenario* loo = nullptr;
  for (const scenario& s : sweep)
    if (s.topology.n == 7 && s.f == 1 && s.adversary == adversary_kind::honest)
      loo = &s;
  ASSERT_NE(loo, nullptr);
  const run_record r = execute_scenario(*loo, 0, 11);
  ASSERT_TRUE(r.ok()) << r.scenario;
  EXPECT_GT(r.cert_loo_downdates, 0u);
  EXPECT_EQ(r.cert_loo_downdates, r.cert_subgraphs);
  // Counter determinism: an identical re-execution reproduces the record.
  EXPECT_EQ(r, execute_scenario(*loo, 0, 11));
}

TEST(ObsCounters, ClaimTalliesAndMarginsOnDisputedCollapsedRuns) {
  // The collapsed-backend ablation runs adversaries that force dispute
  // phases, so the echo/ready tallies and the quorum-margin gauges engage.
  const std::vector<scenario> sweep = select_scenarios("ablation-claims");
  bool saw_collapsed_dispute = false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep[i].claim_backend != bb::claim_backend::collapsed) continue;
    const run_record r = execute_scenario(sweep[i], static_cast<int>(i), 5);
    ASSERT_TRUE(r.ok()) << r.scenario;
    if (r.dispute_phases == 0) continue;
    saw_collapsed_dispute = true;
    EXPECT_GT(r.claim_echoes, 0u) << r.scenario;
    EXPECT_GT(r.claim_readys, 0u) << r.scenario;
    // Quorums were met, so the recorded minima are true non-negative slack.
    EXPECT_GE(r.margin_quorum_slack, 0) << r.scenario;
    EXPECT_GE(r.margin_hold_surplus, 0) << r.scenario;
    EXPECT_LE(r.margin_dispute_headroom,
              static_cast<std::int64_t>(r.f) * (r.f + 1));
  }
  EXPECT_TRUE(saw_collapsed_dispute);
}

TEST(ObsCounters, PerPhaseTauAccountsForTheSession) {
  // tau_phase1/equality_check/flags/phase3 sum the session's instance
  // reports: together they are sim_elapsed, a false-flag run engages all
  // four, a re-execution reproduces them bit for bit, and K_4's three-round
  // flag phases cost more tau than K_5's two-round ones.
  const std::vector<scenario> sweep = select_scenarios("ablation-flags");
  std::vector<std::size_t> picked;
  std::vector<run_record> records;
  for (std::size_t i = 0; i < sweep.size(); ++i)
    if (sweep[i].adversary == adversary_kind::false_flag) {
      picked.push_back(i);
      records.push_back(execute_scenario(sweep[i], static_cast<int>(i), 3));
    }
  ASSERT_EQ(records.size(), 2u);
  for (const run_record& r : records) {
    ASSERT_TRUE(r.ok()) << r.scenario;
    ASSERT_GT(r.dispute_phases, 0) << r.scenario;
    EXPECT_GT(r.tau_phase1, 0.0) << r.scenario;
    EXPECT_GT(r.tau_equality_check, 0.0) << r.scenario;
    EXPECT_GT(r.tau_flags, 0.0) << r.scenario;
    EXPECT_GT(r.tau_phase3, 0.0) << r.scenario;
    EXPECT_NEAR(r.tau_phase1 + r.tau_equality_check + r.tau_flags + r.tau_phase3,
                r.sim_elapsed, 1e-9 * r.sim_elapsed)
        << r.scenario;
  }
  const run_record& a = records[0];
  const run_record& b = records[1];
  EXPECT_EQ(a.nodes, 4);
  EXPECT_EQ(b.nodes, 5);
  EXPECT_GT(a.tau_flags, b.tau_flags);
  EXPECT_EQ(a, execute_scenario(sweep[picked[0]], static_cast<int>(picked[0]), 3));
}

TEST(ObsCounters, PerPhaseBitsAccountForTheSession) {
  // bits_phase1/equality_check/flags/phase3 are network::total_bits deltas
  // per phase: together they are every bit the run's traffic trace saw. The
  // false-flag runs engage all four phases; the hypercube run routes its
  // flags over emulated multi-hop channels.
  std::vector<std::pair<scenario, int>> picked;
  const std::vector<scenario> flags = select_scenarios("ablation-flags");
  for (std::size_t i = 0; i < flags.size(); ++i)
    if (flags[i].adversary == adversary_kind::false_flag)
      picked.emplace_back(flags[i], static_cast<int>(i));
  const std::vector<scenario> cube = select_scenarios("hypercube");
  ASSERT_FALSE(cube.empty());
  picked.emplace_back(cube.front(), 0);
  for (const auto& [s, index] : picked) {
    const run_record r = execute_scenario(s, index, 3, /*capture_trace=*/true);
    ASSERT_TRUE(r.ok()) << r.scenario;
    std::uint64_t traced = 0;
    for (std::uint64_t bits : r.traffic) traced += bits;
    EXPECT_GT(r.bits_phase1, 0u) << r.scenario;
    EXPECT_GT(r.bits_equality_check, 0u) << r.scenario;
    EXPECT_GT(r.bits_flags, 0u) << r.scenario;
    EXPECT_EQ(r.bits_phase3 > 0, r.dispute_phases > 0) << r.scenario;
    EXPECT_EQ(r.bits_phase1 + r.bits_equality_check + r.bits_flags + r.bits_phase3,
              traced)
        << r.scenario;
  }
}

TEST(ObsCounters, IdenticalAcrossPooledAndUnpooledSessions) {
  // Same contract the arena-equivalence suite pins for outputs, extended to
  // the deterministic counter set: pooling is invisible to everything but
  // the arena_* machine counters.
  const auto run_counted = [](bool pooled) {
    core::session_config cfg;
    cfg.g = graph::complete(7);
    cfg.f = 2;
    cfg.pool_memory = pooled;
    sim::fault_set faults(7, {2, 5});
    obs::collector col;
    obs::scoped_collector scope(&col);
    core::run_session(std::move(cfg), faults, nullptr, /*q=*/3,
                      /*words_per_input=*/16, /*seed=*/0xbeef);
    return col;
  };
  const obs::collector pooled = run_counted(true);
  const obs::collector unpooled = run_counted(false);
  for (int i = 0; i < obs::counter_count; ++i) {
    const auto c = static_cast<obs::counter>(i);
    if (c == obs::counter::arena_allocs || c == obs::counter::arena_pool_hits ||
        c == obs::counter::cache_hits || c == obs::counter::cache_misses)
      continue;  // machine set: allowed (and expected) to differ
    EXPECT_EQ(pooled.value(c), unpooled.value(c)) << obs::counter_name(c);
  }
  for (int i = 0; i < obs::gauge_count; ++i) {
    const auto g = static_cast<obs::gauge>(i);
    EXPECT_EQ(pooled.gauge_value(g), unpooled.gauge_value(g))
        << obs::gauge_name(g);
  }
  // Span structure (names and depths, in order) must match too — modulo the
  // documented omega_cache caveat: fill spans appear only on the run that
  // pays the process-wide miss, which here is the first session.
  const auto protocol_spans = [](const obs::collector& col) {
    std::vector<std::pair<std::string, int>> out;
    for (const obs::span_record& s : col.spans())
      if (s.name.rfind("omega_cache/", 0) != 0) out.emplace_back(s.name, s.depth);
    return out;
  };
  EXPECT_EQ(protocol_spans(pooled), protocol_spans(unpooled));
}

TEST(ObsCounters, SpanCaptureIsOptIn) {
  const std::vector<scenario> sweep = select_scenarios("fig1");
  const run_record bare = execute_scenario(sweep.front(), 0, 11);
  const run_record timed = execute_scenario(sweep.front(), 0, 11,
                                            /*capture_trace=*/false,
                                            /*capture_spans=*/true);
  EXPECT_TRUE(bare.timing.spans.empty());
  ASSERT_FALSE(timed.timing.spans.empty());
  // Capture must not perturb the record: the determinism contract already
  // ignores timing, and the deterministic fields agree exactly.
  EXPECT_EQ(bare, timed);
  // The span list is a forest: ids are positional, parents precede children.
  for (std::size_t i = 0; i < timed.timing.spans.size(); ++i) {
    const obs::span_record& s = timed.timing.spans[i];
    EXPECT_EQ(s.id, static_cast<int>(i));
    EXPECT_LT(s.parent, s.id);
    EXPECT_GE(s.wall_end, s.wall_begin);
  }
}

}  // namespace
}  // namespace nab::runtime
