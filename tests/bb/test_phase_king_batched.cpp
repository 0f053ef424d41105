// The batched phase-king engine against an oracle: one independent
// single-source broadcast per source, back to back, each exchanging through
// a std::map per receiver. Source q's oracle broadcast takes the engine's
// king schedule participants[(q + phase) % np] (q = 0 is the single-instance
// schedule). Decisions must match exactly on complete, hypercube and
// random-regular topologies, under corrupt sources, value-lying corrupt
// nodes and tampering relays, and the shared rounds must never cost more
// simulated time than the back-to-back ones. One exception: under
// per-receiver equivocation the merged channel compresses the oracle's
// two classes of 1-bit lies but not the batched rows (distinct for every
// receiver), so there the bound is against the same batched run on the
// per-path reference channel.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "bb/broadcast.hpp"
#include "bb/phase_king.hpp"
#include "graph/generators.hpp"
#include "reference_channel.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

// ---------------------------------------------------------------------------
// The oracle.
// ---------------------------------------------------------------------------

std::vector<std::map<graph::node_id, std::uint64_t>> oracle_exchange(
    channel_plan& channels, sim::network& net, const sim::fault_set& faults,
    const std::vector<graph::node_id>& participants,
    const std::vector<std::uint64_t>& current, int phase, bool king_round,
    graph::node_id king, std::uint64_t value_bits, pk_adversary* adv,
    relay_adversary* relay_adv) {
  const int universe = channels.topology().universe();
  for (graph::node_id i : participants) {
    if (king_round && i != king) continue;
    for (graph::node_id j : participants) {
      if (j == i) continue;
      std::uint64_t v = current[static_cast<std::size_t>(i)];
      if (faults.is_corrupt(i) && adv != nullptr)
        v = adv->exchange_value(i, j, phase, king_round, v);
      channels.unicast(i, j, static_cast<std::uint64_t>(phase), {v}, value_bits);
    }
  }
  channels.end_round(net, faults, relay_adv);
  std::vector<std::map<graph::node_id, std::uint64_t>> received(
      static_cast<std::size_t>(universe));
  for (graph::node_id j : participants)
    for (const sim::message& m : channels.inbox(j))
      if (!m.payload.empty())
        received[static_cast<std::size_t>(j)][m.from] = m.payload[0];
  return received;
}

pk_result oracle_consensus(channel_plan& channels, sim::network& net,
                           const sim::fault_set& faults,
                           const std::vector<std::uint64_t>& initial, int f,
                           std::uint64_t value_bits, pk_adversary* adv,
                           relay_adversary* relay_adv, std::size_t king_offset) {
  const std::vector<graph::node_id> participants = channels.topology().active_nodes();
  const auto n = static_cast<int>(participants.size());
  std::vector<std::uint64_t> current = initial;
  const double t0 = net.elapsed();
  for (int phase = 0; phase <= f; ++phase) {
    const auto seen = oracle_exchange(channels, net, faults, participants, current, phase,
                                      false, -1, value_bits, adv, relay_adv);
    std::vector<std::uint64_t> maj(current.size(), 0);
    std::vector<int> mult(current.size(), 0);
    for (graph::node_id v : participants) {
      std::map<std::uint64_t, int> votes;
      ++votes[current[static_cast<std::size_t>(v)]];
      for (const auto& [from, val] : seen[static_cast<std::size_t>(v)]) ++votes[val];
      int best = 0;
      std::uint64_t best_val = 0;
      for (const auto& [val, count] : votes)
        if (count > best || (count == best && val < best_val)) {
          best = count;
          best_val = val;
        }
      maj[static_cast<std::size_t>(v)] = best_val;
      mult[static_cast<std::size_t>(v)] = best;
    }
    const std::size_t king_slot = king_offset + static_cast<std::size_t>(phase);
    const graph::node_id king = participants[king_slot % participants.size()];
    const auto king_msgs = oracle_exchange(channels, net, faults, participants, maj,
                                           phase, true, king, value_bits, adv, relay_adv);
    for (graph::node_id v : participants) {
      const bool confident = 2 * mult[static_cast<std::size_t>(v)] > n + 2 * f;
      if (confident || v == king) {
        current[static_cast<std::size_t>(v)] = maj[static_cast<std::size_t>(v)];
      } else {
        const auto& inbox = king_msgs[static_cast<std::size_t>(v)];
        const auto it = inbox.find(king);
        current[static_cast<std::size_t>(v)] = it == inbox.end() ? 0 : it->second;
      }
    }
  }
  pk_result out;
  out.decided = std::move(current);
  out.time = net.elapsed() - t0;
  return out;
}

pk_result oracle_broadcast(channel_plan& channels, sim::network& net,
                           const sim::fault_set& faults, graph::node_id source,
                           std::uint64_t input, int f, std::uint64_t value_bits,
                           pk_adversary* adv, relay_adversary* relay_adv,
                           std::size_t king_offset) {
  const std::vector<graph::node_id> participants = channels.topology().active_nodes();
  std::vector<std::uint64_t> initial(
      static_cast<std::size_t>(channels.topology().universe()), 0);
  for (graph::node_id j : participants) {
    if (j == source) continue;
    std::uint64_t v = input;
    if (faults.is_corrupt(source) && adv != nullptr)
      v = adv->exchange_value(source, j, -1, false, v);
    channels.unicast(source, j, 0, {v}, value_bits);
  }
  channels.end_round(net, faults, relay_adv);
  initial[static_cast<std::size_t>(source)] = input;
  for (graph::node_id j : participants) {
    if (j == source) continue;
    for (const sim::message& m : channels.inbox(j))
      if (m.from == source && !m.payload.empty())
        initial[static_cast<std::size_t>(j)] = m.payload[0];
  }
  return oracle_consensus(channels, net, faults, initial, f, value_bits, adv, relay_adv,
                          king_offset);
}

/// The per-source flag loop: one broadcast per source, back to back, source
/// q under king offset q.
flags_outcome oracle_flags(channel_plan& channels, sim::network& net,
                           const sim::fault_set& faults, const std::vector<bool>& flags,
                           int f, const std::vector<graph::node_id>& sources,
                           pk_adversary* adv, relay_adversary* relay_adv) {
  const auto participants = channels.topology().active_nodes();
  const int universe = channels.topology().universe();
  flags_outcome out;
  out.agreed.assign(static_cast<std::size_t>(universe),
                    std::vector<bool>(static_cast<std::size_t>(universe), false));
  const double t0 = net.elapsed();
  for (std::size_t q = 0; q < sources.size(); ++q) {
    const graph::node_id src = sources[q];
    const std::uint64_t flag = flags[static_cast<std::size_t>(src)] ? 1 : 0;
    const pk_result r =
        oracle_broadcast(channels, net, faults, src, flag, f, 1, adv, relay_adv, q);
    for (graph::node_id v : participants)
      out.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)] =
          r.decided[static_cast<std::size_t>(v)] != 0;
  }
  out.time = net.elapsed() - t0;
  return out;
}

// ---------------------------------------------------------------------------
// Adversaries: pure functions of their arguments, so the oracle's and the
// engine's different call orders see the same lies.
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Reports a hashed bit (or, now and then, a non-flag word) per
/// (sender, receiver, phase, round kind, honest value).
class hashed_liar : public pk_adversary {
 public:
  explicit hashed_liar(std::uint64_t salt) : salt_(salt) {}
  std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver, int phase,
                               bool is_king_round, std::uint64_t honest) override {
    const std::uint64_t h =
        mix(salt_ ^ mix((static_cast<std::uint64_t>(sender) << 40) ^
                        (static_cast<std::uint64_t>(receiver) << 20) ^
                        (static_cast<std::uint64_t>(phase + 1) << 4) ^
                        (is_king_round ? 8u : 0u) ^ honest));
    return (h & 15) == 0 ? 2 + (h >> 60) : (h >> 8) & 1;
  }

 private:
  std::uint64_t salt_;
};

/// Flips every word of every copy a corrupt relay forwards; every fourth
/// copy is truncated to nothing instead.
class flipping_relay : public relay_adversary {
 public:
  std::optional<sim::payload> tamper(const std::vector<graph::node_id>& path,
                                     const sim::message& m) override {
    const auto relay = static_cast<std::uint64_t>(path[1]);
    if (mix(relay * 131 + static_cast<std::uint64_t>(m.to)) % 4 == 0)
      return sim::payload{};
    sim::payload forged = m.payload;
    for (std::uint64_t& w : forged) w ^= 1;
    return forged;
  }
};

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

struct topo_case {
  std::string name;
  graph::digraph g;
  int f;
  bool tau_bound;  ///< assert tau_batched <= tau_oracle (K_n, Q_d)
};

std::vector<topo_case> cases() {
  rng rand(77);
  return {{"K7", graph::complete(7), 1, true},
          {"Q4", graph::hypercube(4), 1, true},
          {"Q6f2", graph::hypercube(6), 2, true},
          {"RR20d5", graph::random_regular(20, 5, 1, 3, rand), 1, false}};
}

enum class attack { none, pk, relay, both };

struct run_out {
  flags_outcome flags;
  double elapsed = 0.0;
};

run_out run_flags(const topo_case& c, const std::vector<graph::node_id>& corrupt,
                  const std::vector<bool>& flags, attack how, std::uint64_t salt,
                  bool batched, bool per_path = false) {
  sim::network net(c.g);
  sim::fault_set faults(c.g.universe(), corrupt);
  const std::unique_ptr<channel_plan> channels =
      per_path ? std::make_unique<reference_channel>(c.g, c.f)
               : std::make_unique<channel_plan>(c.g, c.f);
  channel_plan& plan = *channels;
  hashed_liar liar(salt);
  flipping_relay relay;
  pk_adversary* pk = how == attack::pk || how == attack::both ? &liar : nullptr;
  relay_adversary* ra = how == attack::relay || how == attack::both ? &relay : nullptr;
  const auto sources = c.g.active_nodes();
  run_out out;
  out.flags = batched ? broadcast_flags_phase_king(plan, net, faults, flags, c.f, sources,
                                                   pk, ra)
                      : oracle_flags(plan, net, faults, flags, c.f, sources, pk, ra);
  out.elapsed = net.elapsed();
  return out;
}

std::vector<graph::node_id> pick_corrupt(const graph::digraph& g, int count, rng& rand) {
  std::vector<graph::node_id> out;
  while (static_cast<int>(out.size()) < count) {
    const auto v = static_cast<graph::node_id>(
        rand.below(static_cast<std::uint64_t>(g.universe())));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

TEST(PhaseKingBatched, FlagMatricesMatchPerSourceOracle) {
  rng rand(2026);
  for (const topo_case& c : cases()) {
    // Q_6's oracle is 64 back-to-back broadcasts; keep its trial count low.
    const int trials = c.g.universe() > 32 ? 1 : 4;
    for (attack how : {attack::none, attack::pk, attack::relay, attack::both}) {
      for (int t = 0; t < trials; ++t) {
        const int faulty = how == attack::none && t == 0 ? 0 : c.f;
        const auto corrupt = pick_corrupt(c.g, faulty, rand);
        std::vector<bool> flags(static_cast<std::size_t>(c.g.universe()));
        for (std::size_t v = 0; v < flags.size(); ++v) flags[v] = rand.below(2) == 1;
        const std::uint64_t salt = rand.next_u64();
        const std::string label = c.name + " attack=" +
                                  std::to_string(static_cast<int>(how)) +
                                  " trial=" + std::to_string(t);

        const run_out batched = run_flags(c, corrupt, flags, how, salt, true);
        const run_out oracle = run_flags(c, corrupt, flags, how, salt, false);
        EXPECT_EQ(batched.flags.agreed, oracle.flags.agreed) << label;
        if (c.tau_bound && (how == attack::none || how == attack::relay)) {
          EXPECT_LE(batched.flags.time, oracle.flags.time) << label;
        } else if (c.tau_bound) {
          const run_out per_path = run_flags(c, corrupt, flags, how, salt, true, true);
          EXPECT_EQ(per_path.flags.agreed, batched.flags.agreed) << label;
          EXPECT_LE(batched.flags.time, per_path.flags.time) << label;
        }
        EXPECT_EQ(batched.flags.time, batched.elapsed) << label;

        // Paper properties on top of the equivalence: honest sources'
        // flags are agreed faithfully, every source's flag identically.
        const sim::fault_set faults(c.g.universe(), corrupt);
        for (graph::node_id src : c.g.active_nodes()) {
          std::optional<bool> bit;
          for (graph::node_id v : c.g.active_nodes()) {
            if (faults.is_corrupt(v)) continue;
            const bool got = batched.flags.agreed[static_cast<std::size_t>(src)]
                                                 [static_cast<std::size_t>(v)];
            if (!bit) bit = got;
            EXPECT_EQ(got, *bit) << label << " source " << src << " node " << v;
          }
          if (faults.is_honest(src)) {
            EXPECT_EQ(*bit, flags[static_cast<std::size_t>(src)])
                << label << " source " << src;
          }
        }
      }
    }
  }
}

/// Records every adversary call, answering with a hashed lie.
class call_log : public hashed_liar {
 public:
  using hashed_liar::hashed_liar;
  std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver, int phase,
                               bool is_king_round, std::uint64_t honest) override {
    calls.emplace_back(sender, receiver, phase, is_king_round, honest);
    return hashed_liar::exchange_value(sender, receiver, phase, is_king_round, honest);
  }
  std::vector<std::tuple<graph::node_id, graph::node_id, int, bool, std::uint64_t>> calls;
};

TEST(PhaseKingBatched, SingleInstanceIsByteIdenticalToOracle) {
  // One instance of the engine is the old single-source protocol: same
  // decisions, same tau, same per-link bits, same adversary call sequence.
  for (const topo_case& c : cases()) {
    const std::vector<graph::node_id> corrupt{c.g.active_nodes()[1]};
    const sim::fault_set faults(c.g.universe(), corrupt);
    for (graph::node_id source : {c.g.active_nodes()[0], corrupt[0]}) {
      sim::network net_a(c.g), net_b(c.g);
      channel_plan plan_a(c.g, c.f), plan_b(c.g, c.f);
      call_log log_a(3), log_b(3);
      flipping_relay relay;
      const pk_result a =
          phase_king_broadcast(plan_a, net_a, faults, source, 6, c.f, 64, &log_a, &relay);
      const pk_result b =
          oracle_broadcast(plan_b, net_b, faults, source, 6, c.f, 64, &log_b, &relay, 0);
      EXPECT_EQ(a.decided, b.decided) << c.name;
      EXPECT_EQ(a.time, b.time) << c.name;
      EXPECT_EQ(net_a.elapsed(), net_b.elapsed()) << c.name;
      EXPECT_EQ(net_a.total_bits(), net_b.total_bits()) << c.name;
      EXPECT_EQ(log_a.calls, log_b.calls) << c.name;

      std::vector<std::uint64_t> init(static_cast<std::size_t>(c.g.universe()));
      for (std::size_t v = 0; v < init.size(); ++v) init[v] = v % 3;
      call_log log_c(4), log_d(4);
      const pk_result cc =
          phase_king_consensus(plan_a, net_a, faults, init, c.f, 16, &log_c, &relay);
      const pk_result dd =
          oracle_consensus(plan_b, net_b, faults, init, c.f, 16, &log_d, &relay, 0);
      EXPECT_EQ(cc.decided, dd.decided) << c.name;
      EXPECT_EQ(cc.time, dd.time) << c.name;
      EXPECT_EQ(net_a.elapsed(), net_b.elapsed()) << c.name;
      EXPECT_EQ(log_c.calls, log_d.calls) << c.name;
    }
  }
}

TEST(PhaseKingBatched, OneUnicastPerPairPerRound) {
  // K_n, honest: dissemination + (f+1) x (exchange, king round), each round
  // carrying at most one logical message per ordered pair; the exchange
  // rounds carry n bits per pair, the others one.
  const int n = 9, f = 2;
  const graph::digraph g = graph::complete(n);
  sim::network net(g);
  const sim::fault_set faults(n);
  channel_plan plan(g, f);
  const std::vector<bool> flags(n, true);
  const flags_outcome out =
      broadcast_flags_phase_king(plan, net, faults, flags, f, g.active_nodes());
  const double pairs = static_cast<double>(n) * (n - 1);
  EXPECT_EQ(net.total_bits(),
            static_cast<std::uint64_t>(pairs * (1 + (f + 1) * (n + 1))));
  // Unit capacities: each round costs its heaviest link.
  EXPECT_EQ(out.time, 1.0 + (f + 1) * (n + 1.0));
}

}  // namespace
}  // namespace nab::bb
