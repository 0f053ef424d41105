#include "eig_oracle.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/rng.hpp"

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

/// Corrupt source sends a different value to every receiver.
class equivocator : public eig_adversary {
 public:
  value source_value(graph::node_id, graph::node_id receiver, const value&) override {
    return {static_cast<std::uint64_t>(receiver) + 1000};
  }
};

/// Corrupt relays lie about every label they forward, per receiver.
class lying_relay : public eig_adversary {
 public:
  value relay_value(graph::node_id sender, graph::node_id receiver,
                    const std::vector<graph::node_id>&, const value&) override {
    return {static_cast<std::uint64_t>(sender * 100 + receiver)};
  }
};

/// Corrupt nodes stay silent everywhere (default-value behavior).
class silent : public eig_adversary {
 public:
  value source_value(graph::node_id, graph::node_id, const value&) override {
    return {};
  }
  value relay_value(graph::node_id, graph::node_id, const std::vector<graph::node_id>&,
                    const value&) override {
    return {};
  }
};

void expect_agreement_and_validity(const harness& h, const eig_result& r,
                                   std::size_t q, graph::node_id source,
                                   const value* expected) {
  value agreed;
  bool first = true;
  for (graph::node_id v : h.g.active_nodes()) {
    if (h.faults.is_corrupt(v)) continue;
    if (first) {
      agreed = r.decisions[q][static_cast<std::size_t>(v)];
      first = false;
    } else {
      EXPECT_EQ(r.decisions[q][static_cast<std::size_t>(v)], agreed)
          << "disagreement at node " << v;
    }
  }
  if (expected != nullptr && h.faults.is_honest(source)) {
    EXPECT_EQ(agreed, *expected);
  }
}

TEST(Eig, ValidityWithNoFaults) {
  harness h(4);
  const value x{0xDEADBEEF, 0x1234};
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, x}}, 1, 128);
  expect_agreement_and_validity(h, r, 0, 0, &x);
}

TEST(Eig, ValidityWithCorruptRelay) {
  for (graph::node_id corrupt = 1; corrupt < 4; ++corrupt) {
    harness h(4, {corrupt});
    lying_relay adv;
    const value x{42};
    const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, x}}, 1, 64, &adv);
    expect_agreement_and_validity(h, r, 0, 0, &x);
  }
}

TEST(Eig, AgreementWithEquivocatingSource) {
  harness h(4, {0});
  equivocator adv;
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, {7}}}, 1, 64, &adv);
  expect_agreement_and_validity(h, r, 0, 0, nullptr);
}

TEST(Eig, AgreementWithSilentSource) {
  harness h(4, {0});
  silent adv;
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, {7}}}, 1, 64, &adv);
  expect_agreement_and_validity(h, r, 0, 0, nullptr);
}

TEST(Eig, TwoFaultsAmongSeven) {
  // n = 7 > 3f with f = 2; source honest, two corrupt relays.
  harness h(7, {2, 5}, 2);
  lying_relay adv;
  const value x{99, 100};
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, x}}, 2, 128, &adv);
  expect_agreement_and_validity(h, r, 0, 0, &x);
}

TEST(Eig, TwoFaultsEquivocatingSourcePlusRelay) {
  // Corrupt source AND one corrupt relay colluding (both equivocate).
  class collusion : public eig_adversary {
   public:
    value source_value(graph::node_id, graph::node_id r, const value&) override {
      return {static_cast<std::uint64_t>(r % 2)};
    }
    value relay_value(graph::node_id, graph::node_id r, const std::vector<graph::node_id>&,
                      const value&) override {
      return {static_cast<std::uint64_t>(r % 3)};
    }
  };
  harness h(7, {0, 3}, 2);
  collusion adv;
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, {1}}}, 2, 64, &adv);
  expect_agreement_and_validity(h, r, 0, 0, nullptr);
}

TEST(Eig, BatchedInstancesShareRounds) {
  harness h(4);
  std::vector<eig_instance> instances;
  for (graph::node_id s = 0; s < 4; ++s)
    instances.push_back({s, {static_cast<std::uint64_t>(s * 11)}});
  const int steps_before = h.net.steps();
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, instances, 1, 64);
  // f+1 = 2 rounds total, regardless of instance count.
  EXPECT_EQ(h.net.steps() - steps_before, 2);
  for (std::size_t q = 0; q < 4; ++q) {
    const value expected{static_cast<std::uint64_t>(q * 11)};
    expect_agreement_and_validity(h, r, q, static_cast<graph::node_id>(q), &expected);
  }
}

TEST(Eig, WorksOverEmulatedIncompleteTopology) {
  graph::digraph g = graph::complete(5);
  g.remove_edge_pair(0, 3);
  g.remove_edge_pair(1, 4);
  sim::network net(g);
  sim::fault_set faults(5, {2});
  channel_plan plan(g, 1);
  lying_relay adv;
  const value x{555};
  const auto r = eig_broadcast_all(plan, net, faults, {{0, x}}, 1, 64, &adv);
  for (graph::node_id v : g.active_nodes()) {
    if (faults.is_honest(v)) {
      EXPECT_EQ(r.decisions[0][static_cast<std::size_t>(v)], x);
    }
  }
}

TEST(Eig, FaultFreeFZeroSingleRound) {
  harness h(3, {}, 0);
  const value x{1};
  const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{1, x}}, 0, 8);
  expect_agreement_and_validity(h, r, 0, 1, &x);
}

TEST(Eig, ExhaustiveSourceBehaviorsOnFourNodes) {
  // Adversarial source tries all 3^3 assignments of {a, b, silent} to the
  // three receivers; agreement must hold in every case.
  class table_adv : public eig_adversary {
   public:
    explicit table_adv(int code) : code_(code) {}
    value source_value(graph::node_id, graph::node_id receiver, const value&) override {
      const int choice = (code_ / static_cast<int>(receiver)) % 3;  // receiver in 1..3
      if (choice == 0) return {111};
      if (choice == 1) return {222};
      return {};
    }

   private:
    int code_;
  };
  for (int code = 0; code < 27; ++code) {
    harness h(4, {0});
    table_adv adv(code);
    const auto r = eig_broadcast_all(h.plan, h.net, h.faults, {{0, {9}}}, 1, 64, &adv);
    expect_agreement_and_validity(h, r, 0, 0, nullptr);
  }
}

}  // namespace
}  // namespace nab::bb
