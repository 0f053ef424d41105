// Erasure-vs-Byzantine discrimination in dispute control: with
// instance_context::lossy_links set, a *missing* receipt claim is what
// honest ARQ budget exhaustion looks like and must yield neither disputes
// nor convictions — while the very same transcripts on (claimed) clean
// links are evidence. Mismatching *present* content stays tamper either
// way: the lossy gate must never mask an actual garbler.

#include <gtest/gtest.h>

#include <functional>

#include "bb/channels.hpp"
#include "core/dispute.hpp"
#include "core/equality_check.hpp"
#include "core/phase1.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

struct scenario_result {
  dispute_outcome outcome;
  dispute_record record;
  std::vector<word> input;
};

/// Runs Phases 1-2 on K5(cap 2), f=1, source 0, then lets `mutate` edit the
/// assembled context (transcript surgery standing in for link erasures)
/// before Phase 3 executes with the given lossy_links classification.
scenario_result run_scenario(const std::vector<graph::node_id>& corrupt,
                             nab_adversary* adv, bool lossy_links,
                             const std::function<void(instance_context&)>& mutate = {}) {
  const graph::digraph g = graph::complete(5, 2);
  sim::network net(g);
  sim::fault_set faults(5, corrupt);
  rng rand(17);

  scenario_result res;
  res.input.resize(8);
  for (auto& w : res.input) w = static_cast<word>(rand.below(65536));

  const auto gamma = graph::broadcast_mincut(g, 0);
  const auto trees = graph::pack_arborescences(g, 0, static_cast<int>(gamma));
  const auto uk = compute_uk(g, 1, res.record);
  const auto rho = compute_rho(uk);
  const auto coding = coding_scheme::generate(g, static_cast<int>(rho), 23);

  const auto p1 = run_phase1(net, g, faults, 0, res.input, trees, adv);
  std::vector<value_vector> values(5);
  for (graph::node_id v : g.active_nodes())
    values[static_cast<std::size_t>(v)] = value_vector::reshape(
        p1.received[static_cast<std::size_t>(v)], static_cast<int>(rho));
  const auto ec = run_equality_check(net, g, faults, coding, values, adv);

  instance_context ctx;
  ctx.source = 0;
  ctx.input = res.input;
  ctx.rho = static_cast<int>(rho);
  ctx.trees = trees;
  ctx.coding = &coding;
  ctx.lossy_links = lossy_links;
  ctx.truth.assign(5, node_claims{});
  ctx.agreed_flags.assign(5, false);
  for (graph::node_id v : g.active_nodes()) {
    node_claims merged = p1.truth[static_cast<std::size_t>(v)];
    merged.p2_sent = ec.truth[static_cast<std::size_t>(v)].p2_sent;
    merged.p2_received = ec.truth[static_cast<std::size_t>(v)].p2_received;
    ctx.truth[static_cast<std::size_t>(v)] = std::move(merged);
    bool flag = ec.flags[static_cast<std::size_t>(v)];
    if (faults.is_corrupt(v) && adv != nullptr) flag = adv->phase2_flag(v, flag);
    ctx.agreed_flags[static_cast<std::size_t>(v)] = flag;
  }
  if (mutate) mutate(ctx);

  bb::channel_plan channels(g, 1);
  res.outcome = run_dispute_control(net, channels, g, faults, 1, 1, ctx,
                                    res.record, adv);
  return res;
}

/// Drops node 3's claimed receipt of node 2's Phase-2 coded symbol — the
/// exact transcript signature honest ARQ exhaustion on link 2->3 leaves.
void erase_p2_receipt(instance_context& ctx) {
  auto& rcvd = ctx.truth[3].p2_received;
  ASSERT_EQ(rcvd.erase({2, 3}), 1u);
}

TEST(DisputeLossy, MissingReceiptOnLossyLinksIsNotEvidence) {
  const auto res = run_scenario({}, nullptr, /*lossy_links=*/true,
                                [](instance_context& ctx) { erase_p2_receipt(ctx); });
  EXPECT_TRUE(res.outcome.new_disputes.empty());
  EXPECT_TRUE(res.outcome.newly_convicted.empty());
  EXPECT_EQ(res.outcome.agreed_value, res.input);
}

TEST(DisputeLossy, SameTranscriptOnCleanLinksIsEvidence) {
  // Identical surgery, lossy_links=false: on links that cannot erase, a
  // sender claiming a send its receiver never claims receiving means one of
  // them lies — DC2 disputes the pair, and DC3's flag replay (which may not
  // skip the hole either) convicts the receiver whose flag no longer matches.
  const auto res = run_scenario({}, nullptr, /*lossy_links=*/false,
                                [](instance_context& ctx) { erase_p2_receipt(ctx); });
  bool pair_disputed = false;
  for (const auto& [a, b] : res.outcome.new_disputes)
    pair_disputed = pair_disputed || (a == 2 && b == 3);
  EXPECT_TRUE(pair_disputed);
  EXPECT_FALSE(res.outcome.newly_convicted.empty());
}

TEST(DisputeLossy, CleanTranscriptsStayCleanUnderLossyClassification) {
  // The gate only widens what counts as consistent: an honest run with no
  // erasures must look exactly as clean with the lossy classification on.
  const auto res = run_scenario({}, nullptr, /*lossy_links=*/true);
  EXPECT_TRUE(res.outcome.new_disputes.empty());
  EXPECT_TRUE(res.outcome.newly_convicted.empty());
  EXPECT_EQ(res.outcome.agreed_value, res.input);
}

TEST(DisputeLossy, TamperingIsStillConvictedUnderLossyClassification) {
  // Mismatching *present* content is not an erasure signature: the truthful
  // Phase-1 garbler fails DC3 replay regardless of the lossy gate.
  phase1_corruptor adv;
  const auto res = run_scenario({2}, &adv, /*lossy_links=*/true);
  EXPECT_EQ(res.outcome.newly_convicted, (std::vector<graph::node_id>{2}));
  EXPECT_EQ(res.outcome.agreed_value, res.input);
}

}  // namespace
}  // namespace nab::core
