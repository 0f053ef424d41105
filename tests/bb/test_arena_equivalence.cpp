// Property test for the arena-backed simulation memory: running the batched
// phase-king engine (flags and payload-valued broadcasts, two- and
// three-round phases) and whole NAB sessions with the per-run arena must be
// byte-identical to the heap path — same decisions, same transcripts, same
// dispute evidence, same simulated time and wire bits — across every
// registry preset topology and across honest, equivocating, and dropping
// adversaries. The arena may only change where bytes live, never what they
// are.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "bb/broadcast.hpp"
#include "core/omega_cache.hpp"
#include "core/session.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "runtime/scenario.hpp"
#include "sim/run_arena.hpp"
#include "util/rng.hpp"

namespace nab {
namespace {

// --- Engine-level adversaries: equivocation and dropping. ---

/// Equivocates in every round: even receivers see 1 (or {1}), odd ones 0.
class equivocating_pk : public bb::pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id, graph::node_id receiver, int, bool,
                               std::uint64_t) override {
    return receiver % 2 == 0 ? 1u : 0u;
  }
  bb::value exchange_payload(graph::node_id, graph::node_id receiver, int, bool,
                             const bb::value&) override {
    return {receiver % 2 == 0 ? 1u : 0u};
  }
};

/// Sends the default (0 / the empty payload) and ⊥ proposals: the model's
/// "not sending".
class dropping_pk : public bb::pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id, graph::node_id, int, bool,
                               std::uint64_t) override {
    return 0;
  }
  bb::value exchange_payload(graph::node_id, graph::node_id, int, bool,
                             const bb::value&) override {
    return {};
  }
  std::optional<std::uint64_t> propose_value(graph::node_id, graph::node_id, int,
                                             const std::optional<std::uint64_t>&) override {
    return std::nullopt;
  }
  std::optional<bb::value> propose_payload(graph::node_id, graph::node_id, int,
                                           const std::optional<bb::value>&) override {
    return std::nullopt;
  }
};

enum class pk_behavior { honest, equivocating, dropping };

struct flags_run {
  std::vector<std::vector<bool>> agreed;
  std::vector<bb::value> decisions;  ///< the payload-valued broadcast's
  double elapsed = 0.0;
  std::uint64_t bits = 0;
  int steps = 0;
};

/// One batched flag broadcast (NAB step 2.2 shape) and one payload-valued
/// broadcast_default over `g` with the first non-source active node corrupt
/// (when f > 0), with or without pooling.
flags_run run_flag_broadcast(const graph::digraph& g, int f, pk_behavior behavior,
                             bool pooled) {
  sim::run_arena arena;
  sim::scoped_run_arena scope(pooled ? &arena : nullptr);
  {
    sim::network net(g);
    bb::channel_plan plan(g, f,
                          core::omega_cache::instance().channel_routes_for(g, f));
    const auto active = g.active_nodes();
    std::vector<graph::node_id> corrupt;
    if (f > 0 && active.size() > 1) corrupt.push_back(active[1]);
    sim::fault_set faults(g.universe(), corrupt);
    std::vector<bool> flags(static_cast<std::size_t>(g.universe()), false);
    for (std::size_t i = 0; i < active.size(); ++i)
      flags[static_cast<std::size_t>(active[i])] = i % 2 == 1;

    equivocating_pk equivocator;
    dropping_pk dropper;
    bb::pk_adversary* adv = nullptr;
    if (behavior == pk_behavior::equivocating) adv = &equivocator;
    if (behavior == pk_behavior::dropping) adv = &dropper;

    const bb::flags_outcome out =
        bb::broadcast_flags_phase_king(plan, net, faults, flags, f, active, adv);
    const bb::broadcast_outcome payload = bb::broadcast_default(
        plan, net, faults, active[0], {0x5eed, 0xf00d, 7}, f, 3 * 64, adv);
    std::vector<bb::value> decisions;
    {
      sim::scoped_run_arena heap(nullptr);  // the copies outlive the arena
      for (const bb::value& v : payload.decisions) decisions.emplace_back(v.begin(), v.end());
    }
    return {out.agreed, std::move(decisions), net.elapsed(), net.total_bits(), net.steps()};
  }
  // arena (and every pooled container, destroyed above) dies here.
}

/// Registry presets as unique (topology, f) pairs, mirroring the runner's
/// feasibility rules (32 reseed attempts for random generators; f capped to
/// 1 beyond 16 nodes to keep the sweep short). Frontier-scale presets
/// (n > 64) are excluded: they exercise no arena code path the n <= 64
/// presets don't, and a 128-node flag broadcast alone would multiply the
/// sweep's wall time — the frontier presets are covered by the perf smoke.
std::vector<std::pair<graph::digraph, int>> registry_topologies() {
  std::vector<std::pair<graph::digraph, int>> out;
  std::map<std::string, bool> seen;
  for (const auto& family : runtime::registry()) {
    for (const auto& sc : family.expand()) {
      const auto& t = sc.topology;
      if (runtime::topology_nodes(t) > 64) continue;
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
        // Unlike the runner we always require full channel feasibility
        // (even at f=0 a flag broadcast needs a strongly connected graph).
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

TEST(ArenaEquivalence, FlagBroadcastsMatchAcrossRegistryPresets) {
  const auto presets = registry_topologies();
  ASSERT_GT(presets.size(), 10u);  // the registry really was swept
  for (const auto& [g, f] : presets) {
    for (pk_behavior behavior :
         {pk_behavior::honest, pk_behavior::equivocating, pk_behavior::dropping}) {
      const flags_run pooled = run_flag_broadcast(g, f, behavior, true);
      const flags_run heap = run_flag_broadcast(g, f, behavior, false);
      const std::string ctx = "n=" + std::to_string(g.universe()) +
                              " f=" + std::to_string(f) + " behavior=" +
                              std::to_string(static_cast<int>(behavior));
      EXPECT_EQ(pooled.agreed, heap.agreed) << ctx;
      EXPECT_EQ(pooled.decisions, heap.decisions) << ctx;
      EXPECT_EQ(pooled.elapsed, heap.elapsed) << ctx;
      EXPECT_EQ(pooled.bits, heap.bits) << ctx;
      EXPECT_EQ(pooled.steps, heap.steps) << ctx;
    }
  }
}

// --- Session-level equivalence: decisions, transcripts, dispute sets. ---

void expect_same_session_run(const core::session_run& a, const core::session_run& b,
                             const std::string& ctx) {
  ASSERT_EQ(a.reports.size(), b.reports.size()) << ctx;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    const std::string rctx = ctx + " instance " + std::to_string(i);
    EXPECT_EQ(ra.outputs, rb.outputs) << rctx;
    EXPECT_EQ(ra.gamma, rb.gamma) << rctx;
    EXPECT_EQ(ra.uk, rb.uk) << rctx;
    EXPECT_EQ(ra.rho, rb.rho) << rctx;
    EXPECT_EQ(ra.default_outcome, rb.default_outcome) << rctx;
    EXPECT_EQ(ra.phase1_only, rb.phase1_only) << rctx;
    EXPECT_EQ(ra.mismatch_announced, rb.mismatch_announced) << rctx;
    EXPECT_EQ(ra.dispute_phase_run, rb.dispute_phase_run) << rctx;
    EXPECT_EQ(ra.time_phase1, rb.time_phase1) << rctx;
    EXPECT_EQ(ra.time_equality_check, rb.time_equality_check) << rctx;
    EXPECT_EQ(ra.time_flags, rb.time_flags) << rctx;
    EXPECT_EQ(ra.time_phase3, rb.time_phase3) << rctx;
    EXPECT_EQ(ra.agreement, rb.agreement) << rctx;
    EXPECT_EQ(ra.validity, rb.validity) << rctx;
    EXPECT_EQ(ra.new_disputes, rb.new_disputes) << rctx;
    EXPECT_EQ(ra.newly_convicted, rb.newly_convicted) << rctx;
  }
  EXPECT_EQ(a.disputes.pairs(), b.disputes.pairs()) << ctx;
  EXPECT_EQ(a.disputes.convicted(), b.disputes.convicted()) << ctx;
  EXPECT_EQ(a.stats.instances, b.stats.instances) << ctx;
  EXPECT_EQ(a.stats.dispute_phases, b.stats.dispute_phases) << ctx;
  EXPECT_EQ(a.stats.elapsed, b.stats.elapsed) << ctx;
  EXPECT_EQ(a.stats.bits_broadcast, b.stats.bits_broadcast) << ctx;
}

/// Silent relay: forwards nothing in Phase 1 (dropping at the session level).
class dropping_relay : public core::nab_adversary {
 public:
  core::chunk phase1_forward_chunk(int, graph::node_id, graph::node_id,
                                   const core::chunk&) override {
    return {};
  }
};

core::session_run run_one(const graph::digraph& g, int f,
                          const std::vector<graph::node_id>& corrupt,
                          core::nab_adversary* adv, bb::claim_backend claims,
                          bool pooled) {
  core::session_config cfg;
  cfg.g = g;
  cfg.f = f;
  cfg.claim_backend = claims;
  cfg.pool_memory = pooled;
  sim::fault_set faults(g.universe(), corrupt);
  return core::run_session(std::move(cfg), faults, adv, /*q=*/5,
                           /*words_per_input=*/16, /*seed=*/0xfeed);
}

TEST(ArenaEquivalence, SessionsMatchAcrossAdversaryStrategies) {
  const graph::digraph k7 = graph::complete(7);

  // Honest (corrupt set present, passive).
  expect_same_session_run(run_one(k7, 2, {2, 5}, nullptr, bb::claim_backend::phase_king, true),
                          run_one(k7, 2, {2, 5}, nullptr, bb::claim_backend::phase_king, false),
                          "honest");

  // Equivocating source (minority victims) — disputes via DC2.
  {
    core::equivocating_source adv_a({1, 3});
    core::equivocating_source adv_b({1, 3});
    expect_same_session_run(
        run_one(k7, 2, {0, 4}, &adv_a, bb::claim_backend::phase_king, true),
        run_one(k7, 2, {0, 4}, &adv_b, bb::claim_backend::phase_king, false), "equivocate");
  }

  // Dropping relay — default-value handling through every phase.
  {
    dropping_relay adv_a;
    dropping_relay adv_b;
    expect_same_session_run(
        run_one(k7, 2, {3, 6}, &adv_a, bb::claim_backend::phase_king, true),
        run_one(k7, 2, {3, 6}, &adv_b, bb::claim_backend::phase_king, false), "drop");
  }

  // Chaos (seeded fuzzing through all hooks) — the widest transcript churn.
  {
    core::chaos_adversary adv_a(0xc4a05, 0.7);
    core::chaos_adversary adv_b(0xc4a05, 0.7);
    expect_same_session_run(
        run_one(k7, 2, {1, 4}, &adv_a, bb::claim_backend::phase_king, true),
        run_one(k7, 2, {1, 4}, &adv_b, bb::claim_backend::phase_king, false), "chaos");
  }

  // Two-round flag phases (n > 4f) with a false flag forcing Phase 3.
  {
    core::false_flagger adv_a;
    core::false_flagger adv_b;
    const graph::digraph k9 = graph::complete(9);
    expect_same_session_run(
        run_one(k9, 2, {2, 7}, &adv_a, bb::claim_backend::collapsed, true),
        run_one(k9, 2, {2, 7}, &adv_b, bb::claim_backend::collapsed, false),
        "two-round flags, collapsed claims");
  }
}

TEST(ArenaEquivalence, SessionsMatchOnSparseEmulatedChannels) {
  // Remove a link so flag/claim broadcasts emulate channels over 2f+1
  // disjoint paths (the majority-vote code path), with a stealthy disputer.
  graph::digraph g = graph::complete(6, 2);
  g.remove_edge_pair(0, 3);
  core::stealth_disputer adv_a;
  core::stealth_disputer adv_b;
  expect_same_session_run(run_one(g, 1, {4}, &adv_a, bb::claim_backend::phase_king, true),
                          run_one(g, 1, {4}, &adv_b, bb::claim_backend::phase_king, false),
                          "stealth/emulated");
}

}  // namespace
}  // namespace nab
