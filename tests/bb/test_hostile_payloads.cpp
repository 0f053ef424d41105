// Hostile payloads into every wire decoder a Byzantine peer feeds: the
// phase-king engine's word and payload row decoders (proposal rows with
// their ⊥ markers included) and the claim broadcast's item decoders
// (next_payload_item, next_propose_item, next_digest_item,
// next_index_item). A deterministic splitmix64 mutator rewrites corrupt
// senders' messages in transit — truncations, bit flips, row widths of 0,
// 65 or not a power of two, length prefixes that run past the end, random
// words — through a relay_adversary on an emulated graph whose corrupt
// relays hold the majority of a corrupt sender's paths, so the mutated copy
// is what honest receivers decode. Every honest node must still agree (and
// decide honest sources' inputs); a decoder that read past a payload, hit
// UB or tripped NAB_ASSERT would fail the run, and the sanitizer jobs run
// this suite under AddressSanitizer and UBSan.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bb/broadcast.hpp"
#include "bb/claim_bcast.hpp"
#include "core/omega_cache.hpp"
#include "support/splitmix.hpp"

namespace nab::bb {
namespace {

using test::splitmix64;

/// One deterministic mutation of `in`, drawn from `state`.
sim::payload mutate(const sim::payload& in, std::uint64_t state) {
  sim::payload out = in;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(state) % (n == 0 ? 1 : n));
  };
  switch (splitmix64(state) % 8) {
    case 0:  // truncation
      out.resize(pick(out.size()));
      break;
    case 1:  // bit flips
      for (int k = 0; k < 3 && !out.empty(); ++k)
        out[pick(out.size())] ^= std::uint64_t{1} << pick(64);
      break;
    case 2:  // row width 0, 65 or not a power of two
      if (out.empty()) out.push_back(0);
      out[0] = std::vector<std::uint64_t>{0, 65, 3, 7, 33, 63}[pick(6)];
      break;
    case 3:  // a length prefix that runs past the end
      if (out.empty()) out.push_back(0);
      out[pick(out.size())] = out.size() + 1 + pick(3);
      break;
    case 4:  // a huge length prefix
      if (out.empty()) out.push_back(0);
      out[pick(out.size())] = ~std::uint64_t{0} - pick(2);
      break;
    case 5:  // trailing garbage
      for (std::size_t k = 0, extra = 1 + pick(4); k < extra; ++k)
        out.push_back(splitmix64(state));
      break;
    case 6:  // random words, random length
      out.assign(pick(12), 0);
      for (std::uint64_t& w : out) w = splitmix64(state) >> pick(64);
      break;
    default:  // nothing at all
      out.clear();
      break;
  }
  return out;
}

/// Rewrites every message a corrupt sender sends, identically on each of
/// its compromised paths (so the mutation wins the receiver's majority);
/// honest senders' copies pass untouched.
class hostile_relay : public relay_adversary {
 public:
  hostile_relay(const sim::fault_set& faults, std::uint64_t salt)
      : faults_(faults), salt_(salt) {}

  std::optional<sim::payload> tamper(const std::vector<graph::node_id>&,
                                     const sim::message& m) override {
    if (!faults_.is_corrupt(m.from)) return std::nullopt;
    std::uint64_t state = salt_ ^ (static_cast<std::uint64_t>(m.from) << 48) ^
                          (static_cast<std::uint64_t>(m.to) << 32) ^ m.tag ^
                          (m.payload.size() << 8);
    for (std::uint64_t w : m.payload) state = splitmix64(state) ^ w;
    ++mutations;
    return mutate(m.payload, state);
  }

  int mutations = 0;

 private:
  const sim::fault_set& faults_;
  std::uint64_t salt_;
};

/// K_{n-1} on nodes 1..n-1 plus node 0 attached to 1, 2 and 3 only: with
/// channels for one fault, node 0 reaches everyone past its neighbours over
/// three disjoint paths through 1, 2 and 3, so corrupt {0, 1, 2} control the
/// majority of node 0's copies. n = 16 at f = 4 runs three-round phase-king
/// phases, n = 17 two-round ones.
graph::digraph tapped_clique(int n) {
  graph::digraph g(n);
  for (graph::node_id u = 1; u < n; ++u)
    for (graph::node_id v = 1; v < n; ++v)
      if (u != v) g.add_edge(u, v, 1);
  for (graph::node_id v = 1; v <= 3; ++v) {
    g.add_edge(0, v, 1);
    g.add_edge(v, 0, 1);
  }
  return g;
}

constexpr int kEngineF = 4;
const std::vector<graph::node_id> kCorrupt = {0, 1, 2};

struct harness {
  graph::digraph g;
  sim::network net;
  channel_plan plan;
  sim::fault_set faults;
  hostile_relay relay;
  harness(int n, std::uint64_t salt)
      : g(tapped_clique(n)),
        net(g),
        plan(g, 1, core::omega_cache::instance().channel_routes_for(g, 1)),
        faults(n, kCorrupt),
        relay(faults, salt) {}
};

/// Honest nodes decide one value per instance, the input for honest
/// sources.
template <typename Decided, typename Input>
void expect_agreement(const harness& h, const Decided& decided, graph::node_id source,
                      const Input& input, const std::string& ctx) {
  std::optional<typename Decided::value_type> first;
  for (graph::node_id v : h.g.active_nodes()) {
    if (h.faults.is_corrupt(v)) continue;
    const typename Decided::value_type mine = decided[static_cast<std::size_t>(v)];
    if (!first) first = mine;
    EXPECT_EQ(mine, *first) << ctx << " node " << v;
  }
  ASSERT_TRUE(first.has_value()) << ctx;
  if (h.faults.is_honest(source)) {
    EXPECT_EQ(*first, input) << ctx;
  }
}

TEST(HostilePayloads, MutatedCopiesWinTheCorruptSendersMajority) {
  // The harness premise: what node 0 sends past its neighbours is decoded
  // in its mutated form.
  harness h(16, 1);
  h.plan.unicast(0, 9, 0, sim::payload{1, 2, 3}, 192);
  h.plan.end_round(h.net, h.faults, &h.relay);
  ASSERT_EQ(h.plan.inbox(9).size(), 1u);
  EXPECT_NE(h.plan.inbox(9)[0].payload, (sim::payload{1, 2, 3}));
  EXPECT_GE(h.relay.mutations, 2);  // at least two of its three paths
}

TEST(HostilePayloads, PhaseKingWordRowsSurvive) {
  for (int n : {16, 17})
    for (std::uint64_t salt = 0; salt < 32; ++salt) {
      harness h(n, salt);
      std::vector<bool> flags(static_cast<std::size_t>(n));
      for (std::size_t v = 0; v < flags.size(); ++v) flags[v] = (v * 7 + salt) % 3 == 0;
      const flags_outcome out = broadcast_flags_phase_king(
          h.plan, h.net, h.faults, flags, kEngineF, h.g.active_nodes(), nullptr, &h.relay);
      EXPECT_GT(h.relay.mutations, 0);
      for (graph::node_id src : h.g.active_nodes())
        expect_agreement(h, out.agreed[static_cast<std::size_t>(src)], src,
                         flags[static_cast<std::size_t>(src)],
                         "n=" + std::to_string(n) + " salt=" + std::to_string(salt) +
                             " source " + std::to_string(src));
    }
}

std::vector<claim_instance> claims_of(const graph::digraph& g) {
  std::vector<claim_instance> out;
  for (graph::node_id v : g.active_nodes()) {
    claim_instance inst;
    inst.source = v;
    inst.input.assign(static_cast<std::size_t>(v % 4), 0x1000u + static_cast<std::uint64_t>(v));
    inst.value_bits = 4 * 64 + 8;
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(HostilePayloads, PhaseKingPayloadRowsSurvive) {
  for (int n : {16, 17})
    for (std::uint64_t salt = 0; salt < 16; ++salt) {
      const std::string ctx = "n=" + std::to_string(n) + " salt=" + std::to_string(salt);
      harness d(n, salt + 100);
      // Corrupt and honest sources, two-word inputs and the empty default.
      for (graph::node_id src : {0, 5, 6}) {
        const value input =
            src == 6 ? value{} : value{0xfeed, static_cast<std::uint64_t>(src)};
        const broadcast_outcome r =
            broadcast_default(d.plan, d.net, d.faults, src, input, kEngineF, 128, nullptr,
                              &d.relay);
        expect_agreement(d, r.decisions, src, input,
                         ctx + " default source " + std::to_string(src));
      }
      EXPECT_GT(d.relay.mutations, 0);
    }
}

TEST(HostilePayloads, CollapsedItemDecodersSurvive) {
  for (int n : {16, 17})
    for (std::uint64_t salt = 0; salt < 32; ++salt) {
      const std::string ctx = "n=" + std::to_string(n) + " salt=" + std::to_string(salt);
      harness h(n, salt);
      const auto instances = claims_of(h.g);
      const claim_outcome out = broadcast_claims(h.plan, h.net, h.faults, instances,
                                                 kEngineF, nullptr, &h.relay, salt);
      EXPECT_GT(h.relay.mutations, 0);
      for (std::size_t q = 0; q < instances.size(); ++q)
        expect_agreement(h, out.agreed[q], instances[q].source, instances[q].input,
                         ctx + " claim " + std::to_string(q));
    }
}

}  // namespace
}  // namespace nab::bb
