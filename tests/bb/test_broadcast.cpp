#include "bb/broadcast.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nab::bb {
namespace {

struct harness {
  explicit harness(int n, std::vector<graph::node_id> corrupt = {}, int f = 1)
      : g(graph::complete(n)), net(g), faults(n, corrupt), plan(g, f) {}
  graph::digraph g;
  sim::network net;
  sim::fault_set faults;
  channel_plan plan;
};

TEST(BroadcastDefault, TwoRoundPhasesForWideGroups) {
  harness h(5);  // 5 > 4f with f=1: dissemination + 2 x (f+1) rounds
  const auto r = broadcast_default(h.plan, h.net, h.faults, 0, {9}, 1, 64);
  for (graph::node_id v : h.g.active_nodes())
    EXPECT_EQ(r.decisions[static_cast<std::size_t>(v)], (value{9}));
  EXPECT_EQ(h.net.steps(), 1 + 2 * 2);
}

TEST(BroadcastDefault, ThreeRoundPhasesForTightGroups) {
  harness h(4);  // 3f < 4 <= 4f: dissemination + 3 x (f+1) rounds
  const auto r = broadcast_default(h.plan, h.net, h.faults, 0, {5, 6}, 1, 128);
  for (graph::node_id v : h.g.active_nodes())
    EXPECT_EQ(r.decisions[static_cast<std::size_t>(v)], (value{5, 6}));
  EXPECT_EQ(h.net.steps(), 1 + 3 * 2);
}

TEST(BroadcastDefault, EmptyInputIsAValue) {
  // The empty payload is the model's default value, and an honest source may
  // still broadcast it: it must not be confused with the ⊥ proposal.
  for (int n : {4, 5}) {
    harness h(n, {n - 1});
    const auto r = broadcast_default(h.plan, h.net, h.faults, 0, {}, 1, 16);
    for (graph::node_id v : h.g.active_nodes())
      if (h.faults.is_honest(v)) {
        EXPECT_EQ(r.decisions[static_cast<std::size_t>(v)], value{});
      }
  }
}

TEST(BroadcastFlags, AllHonestFlagsAgreeEverywhere) {
  harness h(4);
  std::vector<bool> flags{true, false, false, true};
  const auto r = broadcast_flags_phase_king(h.plan, h.net, h.faults, flags, 1,
                                            h.g.active_nodes());
  for (graph::node_id src = 0; src < 4; ++src)
    for (graph::node_id v : h.g.active_nodes())
      EXPECT_EQ(r.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)],
                flags[static_cast<std::size_t>(src)]);
}

/// A corrupt node announces MISMATCH to half the nodes and NULL to the rest,
/// and keeps splitting them in every later round.
class false_flagger : public pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id, graph::node_id receiver, int, bool,
                               std::uint64_t) override {
    return receiver % 2 == 0 ? 1u : 0u;
  }
};

TEST(BroadcastFlags, InconsistentFlagStillYieldsAgreement) {
  harness h(4, {2});
  false_flagger adv;
  std::vector<bool> flags{false, false, false, false};
  const auto r = broadcast_flags_phase_king(h.plan, h.net, h.faults, flags, 1,
                                            h.g.active_nodes(), &adv);
  // Honest sources' flags are agreed faithfully.
  for (graph::node_id src : {0, 1, 3})
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_honest(v)) {
        EXPECT_FALSE(r.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)]);
      }
    }
  // The corrupt source's flag is *some* agreed bit, identical at all honest
  // nodes.
  bool first = true;
  bool bit = false;
  for (graph::node_id v : h.g.active_nodes()) {
    if (h.faults.is_corrupt(v)) continue;
    if (first) {
      bit = r.agreed[2][static_cast<std::size_t>(v)];
      first = false;
    } else {
      EXPECT_EQ(r.agreed[2][static_cast<std::size_t>(v)], bit);
    }
  }
}

TEST(BroadcastFlags, TimeIndependentOfPayloadCount) {
  // Broadcasting 4 flags costs the same rounds as broadcasting 1.
  harness h1(4), h4(4);
  std::vector<bool> one{true, false, false, false};
  std::vector<bool> all{true, true, true, true};
  const int steps1_before = h1.net.steps();
  broadcast_flags_phase_king(h1.plan, h1.net, h1.faults, one, 1, h1.g.active_nodes());
  const int steps1 = h1.net.steps() - steps1_before;
  const int steps4_before = h4.net.steps();
  broadcast_flags_phase_king(h4.plan, h4.net, h4.faults, all, 1, h4.g.active_nodes());
  const int steps4 = h4.net.steps() - steps4_before;
  EXPECT_EQ(steps1, steps4);
}

}  // namespace
}  // namespace nab::bb
