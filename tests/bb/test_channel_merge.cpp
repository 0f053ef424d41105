// The merged channel (a link carries one copy per (from, tag, bits, payload)
// group and round) against the per-path reference channel of
// reference_channel.hpp. Running the same protocol over both, every round
// must deliver byte-identical inboxes in identical order, and no link may
// carry more bits in any round than the reference charges it. Covered:
// complete, hypercube and random-regular topologies, and a holed K_7 at f = 2
// where the phase king runs three-round phases over emulated channels;
// honest runs, tampering relays, equivocating phase-king senders and both at
// once; no fault model and the inert zero-loss model. The EIG oracle's
// larger item batches run over both channels too.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "bb/broadcast.hpp"
#include "bb/phase_king.hpp"
#include "eig_oracle.hpp"
#include "graph/generators.hpp"
#include "reference_channel.hpp"
#include "sim/link_faults.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

/// What one round delivered (every inbox, node by node, in inbox order) and
/// what it charged each directed link (u * n + v).
struct round_log {
  std::vector<std::tuple<graph::node_id, graph::node_id, std::uint64_t, std::uint64_t,
                         std::vector<std::uint64_t>>>
      delivered;
  std::vector<std::uint64_t> link_bits;
};

template <typename Channel>
class recorder : public Channel {
 public:
  using Channel::Channel;

  double end_round(sim::network& net, const sim::fault_set& faults,
                   relay_adversary* adv = nullptr) override {
    const auto n = static_cast<std::size_t>(net.universe());
    round_log log;
    log.link_bits.resize(n * n);
    for (std::size_t l = 0; l < n * n; ++l)
      log.link_bits[l] = net.link_bits(static_cast<graph::node_id>(l / n),
                                       static_cast<graph::node_id>(l % n));
    const double t = Channel::end_round(net, faults, adv);
    for (std::size_t l = 0; l < n * n; ++l)
      log.link_bits[l] = net.link_bits(static_cast<graph::node_id>(l / n),
                                       static_cast<graph::node_id>(l % n)) -
                         log.link_bits[l];
    for (std::size_t v = 0; v < n; ++v)
      for (const sim::message& m : this->inbox(static_cast<graph::node_id>(v)))
        log.delivered.emplace_back(m.from, m.to, m.tag, m.bits,
                                   std::vector<std::uint64_t>(m.payload.begin(),
                                                              m.payload.end()));
    rounds.push_back(std::move(log));
    return t;
  }

  std::vector<round_log> rounds;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Equivocates per receiver: a hashed bit of (sender, receiver, phase,
/// round kind, honest value).
class hashed_liar : public pk_adversary {
 public:
  std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver, int phase,
                               bool is_king_round, std::uint64_t honest) override {
    return mix((static_cast<std::uint64_t>(sender) << 40) ^
               (static_cast<std::uint64_t>(receiver) << 20) ^
               (static_cast<std::uint64_t>(phase + 1) << 4) ^ (is_king_round ? 8u : 0u) ^
               honest) &
           1;
  }
};

/// Flips the first word of every copy a corrupt relay forwards; copies to
/// every third receiver are dropped to nothing instead.
class flipping_relay : public relay_adversary {
 public:
  std::optional<sim::payload> tamper(const std::vector<graph::node_id>& path,
                                     const sim::message& m) override {
    if (mix(static_cast<std::uint64_t>(path[1]) * 131 + static_cast<std::uint64_t>(m.to)) %
            3 ==
        0)
      return sim::payload{};
    sim::payload forged = m.payload;
    if (!forged.empty()) forged[0] ^= 1;
    return forged;
  }
};

struct topo_case {
  std::string name;
  graph::digraph g;
  int f;
};

std::vector<topo_case> cases() {
  rng rand(77);
  graph::digraph holed = graph::complete(7);
  holed.remove_edge_pair(0, 3);
  return {{"K7", graph::complete(7), 1},
          {"K7holes-f2", holed, 2},
          {"Q4", graph::hypercube(4), 1},
          {"Q6f2", graph::hypercube(6), 2},
          {"RR20d5", graph::random_regular(20, 5, 1, 3, rand), 1}};
}

enum class attack { none, relay, pk, both };

std::vector<graph::node_id> pick_corrupt(const graph::digraph& g, int count, rng& rand) {
  std::vector<graph::node_id> out;
  while (static_cast<int>(out.size()) < count) {
    const auto v = static_cast<graph::node_id>(
        rand.below(static_cast<std::uint64_t>(g.universe())));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

/// Runs the phase-king or EIG flag broadcast over a recording channel of
/// type Channel, under the zero-loss model when `zero_loss`.
template <typename Channel>
std::pair<recorder<Channel>, flags_outcome> run(const topo_case& c, bool phase_king,
                                                const std::vector<graph::node_id>& corrupt,
                                                const std::vector<bool>& flags, attack how,
                                                bool zero_loss) {
  sim::link_fault_model zero(sim::parse_loss_spec("zero"), 9);
  sim::scoped_link_faults scope(zero_loss ? &zero : nullptr);
  sim::network net(c.g);
  const sim::fault_set faults(c.g.universe(), corrupt);
  recorder<Channel> plan(c.g, c.f);
  hashed_liar liar;
  flipping_relay relay;
  pk_adversary* pk = how == attack::pk || how == attack::both ? &liar : nullptr;
  relay_adversary* ra = how == attack::relay || how == attack::both ? &relay : nullptr;
  const auto sources = c.g.active_nodes();
  flags_outcome out =
      phase_king ? broadcast_flags_phase_king(plan, net, faults, flags, c.f, sources, pk, ra)
                 : eig_flags(plan, net, faults, flags, c.f, sources, nullptr, ra);
  return {std::move(plan), std::move(out)};
}

TEST(ChannelMerge, InboxesMatchReferenceAndNoLinkCarriesMore) {
  rng rand(2026);
  for (const topo_case& c : cases()) {
    // EIG's n^(f+1) transcript keeps it to the small graphs.
    for (bool phase_king : {true, false}) {
      if (!phase_king && c.g.universe() > 16) continue;
      for (attack how : {attack::none, attack::relay, attack::pk, attack::both}) {
        if (!phase_king && (how == attack::pk || how == attack::both)) continue;
        for (bool zero_loss : {false, true}) {
          const auto corrupt = pick_corrupt(c.g, c.f, rand);
          std::vector<bool> flags(static_cast<std::size_t>(c.g.universe()));
          for (std::size_t v = 0; v < flags.size(); ++v) flags[v] = rand.below(2) == 1;
          const std::string label = c.name + (phase_king ? " pk" : " eig") +
                                    " attack=" + std::to_string(static_cast<int>(how)) +
                                    (zero_loss ? " zero-loss" : "");

          const auto [merged, merged_out] =
              run<channel_plan>(c, phase_king, corrupt, flags, how, zero_loss);
          const auto [ref, ref_out] =
              run<reference_channel>(c, phase_king, corrupt, flags, how, zero_loss);
          EXPECT_EQ(merged_out.agreed, ref_out.agreed) << label;
          EXPECT_LE(merged_out.time, ref_out.time) << label;
          ASSERT_EQ(merged.rounds.size(), ref.rounds.size()) << label;
          for (std::size_t r = 0; r < merged.rounds.size(); ++r) {
            EXPECT_EQ(merged.rounds[r].delivered, ref.rounds[r].delivered)
                << label << " round " << r;
            const auto& mb = merged.rounds[r].link_bits;
            const auto& rb = ref.rounds[r].link_bits;
            for (std::size_t l = 0; l < mb.size(); ++l)
              ASSERT_LE(mb[l], rb[l]) << label << " round " << r << " link " << l;
          }
        }
      }
    }
  }
}

TEST(ChannelMerge, OneCopyPerLinkForIdenticalContent) {
  // Q_3 at f = 1: node 0 reaches its four non-neighbours over 3 disjoint
  // paths each. The same payload to every node is one group, so no link
  // carries it twice; a distinct payload per receiver merges nothing and
  // costs exactly the reference.
  const graph::digraph g = graph::hypercube(3);
  const sim::fault_set faults(8);
  for (bool distinct : {false, true}) {
    sim::network net(g), ref_net(g);
    channel_plan plan(g, 1);
    reference_channel ref(g, 1);
    for (graph::node_id v = 1; v < 8; ++v) {
      const sim::payload words{distinct ? static_cast<std::uint64_t>(v) : 7};
      plan.unicast(0, v, 5, words, 10);
      ref.unicast(0, v, 5, words, 10);
    }
    plan.end_round(net, faults);
    ref.end_round(ref_net, faults);
    for (graph::node_id v = 1; v < 8; ++v) {
      ASSERT_EQ(plan.inbox(v).size(), 1u);
      EXPECT_EQ(plan.inbox(v)[0].payload,
                (sim::payload{distinct ? static_cast<std::uint64_t>(v) : 7}));
    }
    for (graph::node_id u = 0; u < 8; ++u)
      for (graph::node_id v = 0; v < 8; ++v) {
        if (distinct) {
          EXPECT_EQ(net.link_bits(u, v), ref_net.link_bits(u, v)) << u << "->" << v;
        } else {
          EXPECT_LE(net.link_bits(u, v), 10u) << u << "->" << v;
        }
      }
    if (!distinct) {
      EXPECT_LT(net.total_bits(), ref_net.total_bits());
    }
  }
}

TEST(ChannelMerge, ChargesDoNotDependOnQueueOrder) {
  // Node 0 sends one of two payloads to each receiver. Interleaved in the
  // queue or queued payload by payload, every link carries the same bits:
  // at most one copy of each payload.
  const graph::digraph g = graph::hypercube(3);
  const sim::fault_set faults(8);
  std::vector<std::vector<std::uint64_t>> bits;
  const std::vector<std::vector<graph::node_id>> orders = {{1, 2, 3, 4, 5, 6, 7},
                                                           {1, 3, 5, 7, 2, 4, 6}};
  for (const auto& order : orders) {
    sim::network net(g);
    channel_plan plan(g, 1);
    for (graph::node_id v : order)
      plan.unicast(0, v, 5, {static_cast<std::uint64_t>(v) % 2}, 10);
    plan.end_round(net, faults);
    bits.emplace_back();
    for (graph::node_id u = 0; u < 8; ++u)
      for (graph::node_id v = 0; v < 8; ++v) {
        bits.back().push_back(net.link_bits(u, v));
        EXPECT_LE(net.link_bits(u, v), 20u) << u << "->" << v;
      }
  }
  EXPECT_EQ(bits[0], bits[1]);
}

TEST(ChannelMerge, InboxesKeepQueueOrder) {
  // Groups are charged in content order, but each inbox lists its messages
  // in the order they were queued: here senders descending, and each
  // sender's larger tag first.
  const graph::digraph g = graph::hypercube(3);
  const sim::fault_set faults(8);
  sim::network net(g);
  channel_plan plan(g, 1);
  std::vector<std::pair<graph::node_id, std::uint64_t>> queued;
  for (graph::node_id from : {6, 5, 3, 0})
    for (std::uint64_t tag : {9, 2}) {
      const std::uint64_t word = static_cast<std::uint64_t>(from) * 10 + tag;
      for (graph::node_id to : {7, 1})
        if (to != from) plan.unicast(from, to, tag, {word}, 8);
      queued.emplace_back(from, tag);
    }
  plan.end_round(net, faults);
  std::vector<std::pair<graph::node_id, std::uint64_t>> delivered;
  for (const sim::message& m : plan.inbox(7)) {
    delivered.emplace_back(m.from, m.tag);
    EXPECT_EQ(m.payload, (sim::payload{static_cast<std::uint64_t>(m.from) * 10 + m.tag}));
  }
  EXPECT_EQ(delivered, queued);
}

/// Replaces every relayed copy with a forged payload.
class forger : public relay_adversary {
 public:
  std::optional<sim::payload> tamper(const std::vector<graph::node_id>&,
                                     const sim::message&) override {
    return sim::payload{666};
  }
};

TEST(ChannelMerge, HopsPastATamperingRelayAreChargedPerPath) {
  // Node 1 is a corrupt relay on Q_3. With a tampering adversary attached,
  // everything it forwards may differ per path, so its out-links cost what
  // the reference charges; without one, it forwards the group's one copy.
  const graph::digraph g = graph::hypercube(3);
  const sim::fault_set faults(8, {1});
  for (bool attached : {true, false}) {
    sim::network net(g), ref_net(g);
    channel_plan plan(g, 1);
    reference_channel ref(g, 1);
    forger adv;
    for (graph::node_id v = 2; v < 8; ++v) {
      plan.unicast(0, v, 5, {7}, 10);
      ref.unicast(0, v, 5, {7}, 10);
    }
    plan.end_round(net, faults, attached ? &adv : nullptr);
    ref.end_round(ref_net, faults, attached ? &adv : nullptr);
    for (graph::node_id v = 2; v < 8; ++v) {
      ASSERT_EQ(plan.inbox(v).size(), 1u);
      EXPECT_EQ(plan.inbox(v)[0].payload, (sim::payload{7}));  // majority holds
    }
    bool relay_forwarded_twice = false;
    for (graph::node_id v = 0; v < 8; ++v) {
      if (!g.has_edge(1, v)) continue;
      if (attached) {
        EXPECT_EQ(net.link_bits(1, v), ref_net.link_bits(1, v)) << "1->" << v;
      } else {
        EXPECT_LE(net.link_bits(1, v), 10u) << "1->" << v;
      }
      relay_forwarded_twice = relay_forwarded_twice || ref_net.link_bits(1, v) > 10;
    }
    EXPECT_TRUE(relay_forwarded_twice);  // the case is not vacuous
  }
}

TEST(ChannelMerge, MergedTransmissionRunsOneArqLoop) {
  // Every transmission erased: each of node 0's out-links pays the full
  // retry budget once for the group (not once per path through it), the
  // copies never get past the first hop, and nothing is delivered.
  sim::link_fault_model dead(sim::parse_loss_spec("1,1,0,1"), 5);
  sim::scoped_link_faults scope(&dead);
  const graph::digraph g = graph::hypercube(3);
  sim::network net(g);
  const sim::fault_set faults(8);
  channel_plan plan(g, 1);
  for (graph::node_id v = 1; v < 8; ++v) plan.unicast(0, v, 5, {7}, 10);
  plan.end_round(net, faults);
  const int attempts = 1 + dead.params().retry_budget;
  for (graph::node_id u = 0; u < 8; ++u) {
    EXPECT_TRUE(plan.inbox(u).empty());
    for (graph::node_id v = 0; v < 8; ++v) {
      if (!g.has_edge(u, v)) continue;
      const std::uint64_t want = u == 0   ? 10u * attempts
                                 : v == 0 ? static_cast<std::uint64_t>(attempts - 1)
                                          : 0u;  // nacks ride the reverse link
      EXPECT_EQ(net.link_bits(u, v), want) << u << "->" << v;
    }
  }
}

TEST(ChannelMerge, HonestQ6PhaseKingFlagTau) {
  // The steady_flags workload's flag call: honest Q_6 at f = 1, every node a
  // source, all flags clear. Per-path charging puts 667 copies on one link
  // per exchange round; merged, a link carries at most one per sender.
  const graph::digraph g = graph::hypercube(6);
  const std::vector<bool> flags(64, false);
  const auto tau = [&](auto plan) {
    sim::network net(g);
    const sim::fault_set faults(64);
    return broadcast_flags_phase_king(plan, net, faults, flags, 1, g.active_nodes()).time;
  };
  EXPECT_EQ(tau(channel_plan(g, 1)), 7598.0);
  EXPECT_EQ(tau(reference_channel(g, 1)), 87377.0);
}

}  // namespace
}  // namespace nab::bb
