// Parameterized sweeps over the classical-BB substrate: the phase king (word
// and payload rows) and the EIG oracle must deliver agreement + validity for
// every (n, f, corrupt-set, behavior) combination with n > 3f, on complete
// and emulated incomplete topologies alike.

#include <gtest/gtest.h>

#include <string>

#include "bb/broadcast.hpp"
#include "eig_oracle.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

enum class behavior { honest, equivocate, silent, random_noise };

const char* behavior_name(behavior b) {
  switch (b) {
    case behavior::honest: return "honest";
    case behavior::equivocate: return "equivocate";
    case behavior::silent: return "silent";
    case behavior::random_noise: return "noise";
  }
  return "?";
}

struct bb_param {
  int n;
  int f;
  std::vector<graph::node_id> corrupt;
  graph::node_id source;
  behavior how;
  bool punch_holes;  // remove some links, forcing path emulation

  std::string label() const {
    std::string s = "n" + std::to_string(n) + "f" + std::to_string(f) + "_src" +
                    std::to_string(source) + "_c";
    for (auto v : corrupt) s += std::to_string(v);
    s += std::string("_") + behavior_name(how) + (punch_holes ? "_holes" : "_full");
    return s;
  }
};

class misbehaver : public eig_adversary, public pk_adversary {
 public:
  explicit misbehaver(behavior how, std::uint64_t seed) : how_(how), rand_(seed) {}

  value source_value(graph::node_id, graph::node_id receiver, const value& honest) override {
    return twist(honest, receiver);
  }
  value relay_value(graph::node_id, graph::node_id receiver,
                    const std::vector<graph::node_id>&, const value& honest) override {
    return twist(honest, receiver);
  }
  std::uint64_t exchange_value(graph::node_id, graph::node_id receiver, int, bool,
                               std::uint64_t honest) override {
    const value v = twist({honest}, receiver);
    return v.empty() ? 0 : v[0];
  }
  value exchange_payload(graph::node_id, graph::node_id receiver, int, bool,
                         const value& honest) override {
    return twist(honest, receiver);
  }

 private:
  value twist(const value& honest, graph::node_id receiver) {
    switch (how_) {
      case behavior::honest: return honest;
      case behavior::equivocate: return {static_cast<std::uint64_t>(receiver * 7 + 1)};
      case behavior::silent: return {};
      case behavior::random_noise: return {rand_.next_u64() % 5};
    }
    return honest;
  }
  behavior how_;
  rng rand_;
};

class BbProperty : public ::testing::TestWithParam<bb_param> {};

void expect_agreement_and_validity(const std::vector<value>& decisions,
                                   const graph::digraph& g, const sim::fault_set& faults,
                                   const bb_param& p, const value& input) {
  const value* agreed = nullptr;
  for (graph::node_id v : g.active_nodes()) {
    if (faults.is_corrupt(v)) continue;
    if (agreed == nullptr) {
      agreed = &decisions[static_cast<std::size_t>(v)];
    } else {
      EXPECT_EQ(decisions[static_cast<std::size_t>(v)], *agreed)
          << p.label() << " node " << v;
    }
  }
  if (faults.is_honest(p.source)) {
    ASSERT_NE(agreed, nullptr);
    EXPECT_EQ(*agreed, input) << p.label();
  }
}

TEST_P(BbProperty, EigAgreementAndValidity) {
  const bb_param& p = GetParam();
  graph::digraph g = graph::complete(p.n);
  if (p.punch_holes) {
    g.remove_edge_pair(0, p.n - 1);
    if (p.n >= 6) g.remove_edge_pair(1, p.n - 2);
  }
  sim::network net(g);
  sim::fault_set faults(p.n, p.corrupt);
  channel_plan plan(g, p.f);
  misbehaver adv(p.how, 77);
  const value input{0xABCDu};

  const auto r = eig_broadcast_all(plan, net, faults, {{p.source, input}}, p.f, 64, &adv);
  expect_agreement_and_validity(r.decisions[0], g, faults, p, input);
}

TEST_P(BbProperty, PhaseKingPayloadAgreementAndValidity) {
  // broadcast_default: the engine on payload rows, three-round phases
  // whenever n <= 4f.
  const bb_param& p = GetParam();
  graph::digraph g = graph::complete(p.n);
  if (p.punch_holes) {
    g.remove_edge_pair(0, p.n - 1);
    if (p.n >= 6) g.remove_edge_pair(1, p.n - 2);
  }
  sim::network net(g);
  sim::fault_set faults(p.n, p.corrupt);
  channel_plan plan(g, p.f);
  misbehaver adv(p.how, 79);
  const value input{0xABCDu, 7};

  const auto r = broadcast_default(plan, net, faults, p.source, input, p.f, 128, &adv);
  expect_agreement_and_validity(r.decisions, g, faults, p, input);
}

TEST_P(BbProperty, PhaseKingAgreementAndValidity) {
  const bb_param& p = GetParam();
  graph::digraph g = graph::complete(p.n);
  if (p.punch_holes) g.remove_edge_pair(0, p.n - 1);
  sim::network net(g);
  sim::fault_set faults(p.n, p.corrupt);
  channel_plan plan(g, p.f);
  misbehaver adv(p.how, 78);

  const auto r = phase_king_broadcast(plan, net, faults, p.source, 42, p.f, 64, &adv);
  std::optional<std::uint64_t> agreed;
  for (graph::node_id v : g.active_nodes()) {
    if (faults.is_corrupt(v)) continue;
    if (!agreed) {
      agreed = r.decided[static_cast<std::size_t>(v)];
    } else {
      EXPECT_EQ(r.decided[static_cast<std::size_t>(v)], *agreed)
          << p.label() << " node " << v;
    }
  }
  if (faults.is_honest(p.source)) {
    EXPECT_EQ(*agreed, 42u) << p.label();
  }
}

std::vector<bb_param> make_params() {
  std::vector<bb_param> out;
  const behavior behaviors[] = {behavior::honest, behavior::equivocate,
                                behavior::silent, behavior::random_noise};
  for (const behavior how : behaviors) {
    // f=1: corrupt source and corrupt relay, complete and holed.
    for (const bool holes : {false, true}) {
      out.push_back({4, 1, {0}, 0, how, false});
      out.push_back({4, 1, {2}, 0, how, false});
      out.push_back({5, 1, {0}, 0, how, holes});
      out.push_back({5, 1, {3}, 0, how, holes});
      out.push_back({5, 1, {3}, 2, how, holes});
    }
    // f=2 with pairs.
    out.push_back({7, 2, {1, 5}, 0, how, false});
    out.push_back({7, 2, {0, 4}, 0, how, false});
    out.push_back({9, 2, {2, 7}, 1, how, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BbProperty, ::testing::ValuesIn(make_params()),
                         [](const ::testing::TestParamInfo<bb_param>& info) {
                           // Prefix with the index: a few sweep combinations
                           // coincide (e.g. n=4 rows ignore `holes`).
                           return "i" + std::to_string(info.index) + "_" +
                                  info.param.label();
                         });

}  // namespace
}  // namespace nab::bb
