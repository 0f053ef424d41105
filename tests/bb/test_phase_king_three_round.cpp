// The phase king's three-round phase (Berman, Garay & Perry), which the
// engine runs when 3f < n <= 4f, pinned against the EIG oracle at the
// resilience edge n = 3f + 1 (K_4 f=1, K_7 f=2, K_10 f=3), on word rows
// (the step-2.2 flags, consensus) and payload rows (broadcast_default).
// With corrupt nodes honest inside BB, every decision equals the oracle's. Under pk_adversary attacks — equivocating kings,
// lying non-kings, ⊥/value proposal splits — honest sources' values are
// decided as EIG decides them (their inputs) and every corrupt source's
// value is agreed by all honest nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bb/broadcast.hpp"
#include "bb/claim_bcast.hpp"
#include "bb/phase_king.hpp"
#include "eig_oracle.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Lies everywhere as a hashed function of (salt, sender, receiver, phase,
/// round kind, honest value): kings equivocate per receiver, non-kings
/// report split values, and proposals are ⊥, the honest proposal, or a
/// lie. Payload rows get the same treatment, including the empty payload
/// (a value, not ⊥).
class hashed_liar : public pk_adversary {
 public:
  explicit hashed_liar(std::uint64_t salt) : salt_(salt) {}

  std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver, int phase,
                               bool is_king_round, std::uint64_t honest) override {
    const std::uint64_t h = hash(sender, receiver, phase, is_king_round ? 1 : 0, honest);
    return (h & 7) == 0 ? honest : (h >> 8) & 1;
  }
  value exchange_payload(graph::node_id sender, graph::node_id receiver, int phase,
                         bool is_king_round, const value& honest) override {
    const std::uint64_t h = hash(sender, receiver, phase, is_king_round ? 1 : 0,
                                 honest.empty() ? 0 : honest[0]);
    if ((h & 7) == 0) return honest;
    if ((h & 7) == 1) return {};
    return {(h >> 8) & 1, 0xbad};
  }
  std::optional<std::uint64_t> propose_value(
      graph::node_id sender, graph::node_id receiver, int phase,
      const std::optional<std::uint64_t>& honest) override {
    const std::uint64_t h = hash(sender, receiver, phase, 2, honest.value_or(9));
    if ((h & 3) == 0) return std::nullopt;
    if ((h & 3) == 1) return honest;
    return (h >> 8) & 1;
  }
  std::optional<value> propose_payload(graph::node_id sender, graph::node_id receiver,
                                       int phase,
                                       const std::optional<value>& honest) override {
    const std::uint64_t h = hash(sender, receiver, phase, 2,
                                 honest && !honest->empty() ? (*honest)[0] : 9);
    if ((h & 3) == 0) return std::nullopt;
    if ((h & 3) == 1) return honest;
    if ((h & 7) == 2) return value{};
    return value{(h >> 8) & 1, 0xbad};
  }

 private:
  std::uint64_t hash(graph::node_id sender, graph::node_id receiver, int phase,
                     std::uint64_t kind, std::uint64_t honest) const {
    return mix(salt_ ^ mix((static_cast<std::uint64_t>(sender) << 40) ^
                           (static_cast<std::uint64_t>(receiver) << 20) ^
                           (static_cast<std::uint64_t>(phase + 1) << 4) ^ kind ^
                           (honest << 12)));
  }
  std::uint64_t salt_;
};

/// The strong/weak split: every corrupt node reports receiver % 2, proposes
/// it to odd receivers and ⊥ to even ones, and as king sends receiver % 2.
class splitter : public pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id, graph::node_id receiver, int, bool,
                               std::uint64_t) override {
    return static_cast<std::uint64_t>(receiver % 2);
  }
  value exchange_payload(graph::node_id, graph::node_id receiver, int, bool,
                         const value&) override {
    return {static_cast<std::uint64_t>(receiver % 2)};
  }
  std::optional<std::uint64_t> propose_value(graph::node_id, graph::node_id receiver, int,
                                             const std::optional<std::uint64_t>&) override {
    if (receiver % 2 == 0) return std::nullopt;
    return 1;
  }
  std::optional<value> propose_payload(graph::node_id, graph::node_id receiver, int,
                                       const std::optional<value>&) override {
    if (receiver % 2 == 0) return std::nullopt;
    return value{1};
  }
};

struct edge_case {
  std::string name;
  int n;
  int f;
};

/// n = 3f + 1: the three-round phase at its resilience edge.
std::vector<edge_case> edge_cases() {
  return {{"K4 f1", 4, 1}, {"K7 f2", 7, 2}, {"K10 f3", 10, 3}};
}

/// Corrupt sets for one configuration: the first f nodes (the kings of the
/// first f phases, so only the last phase's king is honest) and a hashed
/// draw.
std::vector<std::vector<graph::node_id>> corrupt_sets(int n, int f, rng& rand) {
  std::vector<graph::node_id> first;
  for (graph::node_id v = 0; v < f; ++v) first.push_back(v);
  std::vector<graph::node_id> drawn;
  while (static_cast<int>(drawn.size()) < f) {
    const auto v = static_cast<graph::node_id>(rand.below(static_cast<std::uint64_t>(n)));
    if (std::find(drawn.begin(), drawn.end(), v) == drawn.end()) drawn.push_back(v);
  }
  return {first, drawn};
}

struct harness {
  graph::digraph g;
  sim::network net;
  sim::fault_set faults;
  channel_plan plan;
  harness(int n, int f, const std::vector<graph::node_id>& corrupt)
      : g(graph::complete(n)), net(g), faults(n, corrupt), plan(g, f) {}
};

/// Honest nodes agree on every source's flag; honest sources' flags are
/// their inputs.
void expect_flag_properties(const flags_outcome& out, const harness& h,
                            const std::vector<bool>& flags, const std::string& ctx) {
  for (graph::node_id src : h.g.active_nodes()) {
    std::optional<bool> bit;
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      const bool got = out.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)];
      if (!bit) bit = got;
      EXPECT_EQ(got, *bit) << ctx << " source " << src << " node " << v;
    }
    if (h.faults.is_honest(src)) {
      EXPECT_EQ(*bit, flags[static_cast<std::size_t>(src)]) << ctx << " source " << src;
    }
  }
}

TEST(PhaseKingThreeRound, FlagsMatchTheEigOracle) {
  rng rand(0x3f1);
  for (const edge_case& c : edge_cases())
    for (const auto& corrupt : corrupt_sets(c.n, c.f, rand))
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<bool> flags(static_cast<std::size_t>(c.n));
        for (std::size_t v = 0; v < flags.size(); ++v) flags[v] = rand.below(2) == 1;
        const std::string ctx = c.name + " trial " + std::to_string(trial);

        // Corrupt nodes honest inside BB: identical decisions.
        harness pk(c.n, c.f, corrupt), eig(c.n, c.f, corrupt);
        const flags_outcome a = broadcast_flags_phase_king(pk.plan, pk.net, pk.faults, flags,
                                                           c.f, pk.g.active_nodes());
        const flags_outcome b =
            eig_flags(eig.plan, eig.net, eig.faults, flags, c.f, eig.g.active_nodes());
        for (graph::node_id v : pk.g.active_nodes()) {
          if (pk.faults.is_corrupt(v)) continue;
          for (graph::node_id src : pk.g.active_nodes())
            EXPECT_EQ(a.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)],
                      b.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)])
                << ctx << " source " << src << " node " << v;
        }
        // 1 + 3(f+1) rounds.
        EXPECT_EQ(pk.net.steps(), 1 + 3 * (c.f + 1)) << ctx;

        // Under attack: the oracle's properties.
        hashed_liar liar(rand.next_u64());
        splitter split;
        for (pk_adversary* adv : {static_cast<pk_adversary*>(&liar),
                                  static_cast<pk_adversary*>(&split)}) {
          harness h(c.n, c.f, corrupt);
          const flags_outcome out = broadcast_flags_phase_king(
              h.plan, h.net, h.faults, flags, c.f, h.g.active_nodes(), adv);
          expect_flag_properties(out, h, flags, ctx + (adv == &liar ? " liar" : " splitter"));
        }
      }
}

TEST(PhaseKingThreeRound, ConsensusAgreesOnSplitInputs) {
  // Random honest inputs: agreement; unanimous honest inputs: validity,
  // whatever the corrupt kings and proposers do. Many hashed liars, since a
  // wrong threshold breaks agreement only under one split of the proposals.
  rng rand(0x3f2);
  for (const edge_case& c : edge_cases())
    for (int trial = 0; trial < 400 / c.n; ++trial)
      for (const auto& corrupt : corrupt_sets(c.n, c.f, rand)) {
        hashed_liar liar(rand.next_u64());
        splitter split;
        std::vector<std::uint64_t> split_init(static_cast<std::size_t>(c.n));
        for (std::uint64_t& w : split_init) w = rand.below(2);
        for (pk_adversary* adv : {static_cast<pk_adversary*>(&liar),
                                  static_cast<pk_adversary*>(&split)})
          for (bool unanimous : {false, true}) {
            harness h(c.n, c.f, corrupt);
            std::vector<std::uint64_t> init = split_init;
            if (unanimous) std::fill(init.begin(), init.end(), 1);
            const pk_result r =
                phase_king_consensus(h.plan, h.net, h.faults, init, c.f, 1, adv);
            std::optional<std::uint64_t> agreed;
            for (graph::node_id v : h.g.active_nodes()) {
              if (h.faults.is_corrupt(v)) continue;
              if (!agreed) agreed = r.decided[static_cast<std::size_t>(v)];
              EXPECT_EQ(r.decided[static_cast<std::size_t>(v)], *agreed)
                  << c.name << " trial " << trial << " node " << v;
            }
            if (unanimous) {
              EXPECT_EQ(*agreed, 1u) << c.name;
            }
          }
      }
}

/// Distinct claims (one empty: the empty payload is a value) per node.
std::vector<claim_instance> claims_of(const graph::digraph& g) {
  std::vector<claim_instance> out;
  for (graph::node_id v : g.active_nodes()) {
    claim_instance inst;
    inst.source = v;
    if (v != 1) inst.input = {static_cast<std::uint64_t>(v) * 0x101, 7};
    inst.value_bits = 128;
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(PhaseKingThreeRound, PayloadRowsMatchTheEigOracle) {
  rng rand(0x3f3);
  for (const edge_case& c : edge_cases())
    for (const auto& corrupt : corrupt_sets(c.n, c.f, rand)) {
      // The EIG oracle's claims, corrupt nodes honest inside BB.
      harness eig(c.n, c.f, corrupt);
      const auto instances = claims_of(eig.g);
      const claim_outcome b = eig_claims(eig.plan, eig.net, eig.faults, instances, c.f);

      // broadcast_default under attack, from every source: honest sources
      // decide as EIG does (the input), corrupt ones are agreed.
      hashed_liar liar(rand.next_u64());
      splitter split;
      for (pk_adversary* adv : {static_cast<pk_adversary*>(&liar),
                                static_cast<pk_adversary*>(&split)})
        for (graph::node_id src : eig.g.active_nodes()) {
          harness h(c.n, c.f, corrupt);
          const value input = instances[static_cast<std::size_t>(src)].input;
          const broadcast_outcome out =
              broadcast_default(h.plan, h.net, h.faults, src, input, c.f, 128, adv);
          const std::string ctx = c.name + " source " + std::to_string(src);
          std::optional<value> agreed;
          for (graph::node_id v : h.g.active_nodes()) {
            if (h.faults.is_corrupt(v)) continue;
            if (!agreed) agreed = out.decisions[static_cast<std::size_t>(v)];
            EXPECT_EQ(out.decisions[static_cast<std::size_t>(v)], *agreed)
                << ctx << " node " << v;
          }
          // EIG's decision at the honest source itself is its input.
          if (h.faults.is_honest(src)) {
            EXPECT_EQ(*agreed, b.agreed[static_cast<std::size_t>(src)]
                                       [static_cast<std::size_t>(src)])
                << ctx;
          }
        }
    }
}

}  // namespace
}  // namespace nab::bb
