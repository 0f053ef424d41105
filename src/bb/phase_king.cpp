#include "bb/phase_king.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <type_traits>

#include "bb/broadcast.hpp"
#include "bb/claim_bcast.hpp"
#include "util/assert.hpp"

namespace nab::bb {
namespace {

/// carried[v] = the instances node v sends in a round, ascending.
using carry_lists = std::vector<std::vector<std::size_t>>;

// Row codecs: a round's payload encodes the sender's values of the instances
// it carries, in order, with no per-item header. Word values are packed at
// the bit width of the row's widest value rounded up to a power of two
// ([width, packed words...]: n honest flags take 1 + n/64 words); multi-word
// values travel as [len, words...] each. Equal rows encode equally, and a
// short or tampered payload decodes to its well-formed prefix.
void encode(sim::payload& out, const std::vector<std::uint64_t>& row) {
  std::uint64_t any = 0;
  for (std::uint64_t w : row) any |= w;
  const std::size_t width = std::bit_ceil(static_cast<std::size_t>(std::bit_width(any)));
  const std::size_t per = 64 / width;
  out.assign(1 + (row.size() + per - 1) / per, 0);
  out[0] = width;
  for (std::size_t k = 0; k < row.size(); ++k)
    out[1 + k / per] |= row[k] << (k % per * width);
}
void encode(sim::payload& out, const std::vector<value>& row) {
  out.clear();
  for (const value& v : row) {
    out.push_back(v.size());
    out.insert(out.end(), v.begin(), v.end());
  }
}
void decode(const sim::payload& in, std::size_t count, std::vector<std::uint64_t>& row) {
  row.clear();
  if (in.empty() || in[0] == 0 || in[0] > 64) return;
  const auto width = static_cast<std::size_t>(in[0]);
  const std::uint64_t mask = ~std::uint64_t{0} >> (64 - width);
  for (std::size_t k = 0, per = 64 / width; k < count && 1 + k / per < in.size(); ++k)
    row.push_back(in[1 + k / per] >> (k % per * width) & mask);
}
void decode(const sim::payload& in, std::size_t count, std::vector<value>& row) {
  row.clear();
  for (std::size_t pos = 0;
       row.size() < count && pos < in.size() && in[pos] < in.size() - pos;
       pos += 1 + static_cast<std::size_t>(in[pos])) {
    const auto first = in.begin() + static_cast<std::ptrdiff_t>(pos + 1);
    row.emplace_back(first, first + static_cast<std::ptrdiff_t>(in[pos]));
  }
}

/// Most frequent value of `ballot` (ties to the smallest) and its count.
template <typename V>
void tally(std::vector<V>& ballot, V& winner, int& count) {
  std::sort(ballot.begin(), ballot.end());
  count = 0;
  for (auto run = ballot.begin(); run != ballot.end();) {
    const auto end = std::upper_bound(run, ballot.end(), *run);
    if (end - run > count) {
      count = static_cast<int>(end - run);
      winner = *run;
    }
    run = end;
  }
}

/// The batched phase-king engine: bits.size() broadcasts share every round,
/// each round one logical unicast per ordered pair of participants carrying
/// the sender's values of the instances it holds, charged bits[q] per
/// instance. Per-node values are node-major (vals[at(q, v)]).
template <typename V>
struct engine {
  channel_plan& channels;
  sim::network& net;
  const sim::fault_set& faults;
  std::vector<std::uint64_t> bits;   ///< wire charge per instance
  bool rotate_kings;                 ///< instance q's kings start at offset q (else 0)
  std::optional<std::uint64_t> tag;  ///< fixed traffic tag (else the phase)
  pk_adversary* adv;                 ///< consulted for word values only
  relay_adversary* relay_adv;
  const std::vector<graph::node_id> participants = channels.topology().active_nodes();
  const std::size_t universe = static_cast<std::size_t>(channels.topology().universe());

  std::size_t at(std::size_t q, graph::node_id v) const {
    return static_cast<std::size_t>(v) * bits.size() + q;
  }

  graph::node_id king(std::size_t q, int phase) const {
    const std::size_t offset = rotate_kings ? q : 0;
    return participants[(offset + static_cast<std::size_t>(phase)) % participants.size()];
  }

  /// Sends one round; corrupt senders' words pass through the adversary in
  /// (receiver, instance) order.
  void round(const carry_lists& carried, const std::vector<V>& vals, int phase,
             bool king_round) {
    const std::uint64_t round_tag =
        tag.value_or(phase < 0 ? 0 : static_cast<std::uint64_t>(phase));
    std::vector<V> row;
    sim::payload encoded;
    for (graph::node_id i : participants) {
      const std::vector<std::size_t>& qs = carried[static_cast<std::size_t>(i)];
      if (qs.empty()) continue;
      std::uint64_t charge = 0;
      row.clear();
      for (std::size_t q : qs) {
        charge += bits[q];
        row.push_back(vals[at(q, i)]);
      }
      encode(encoded, row);
      for (graph::node_id j : participants) {
        if (j == i) continue;
        sim::payload words(encoded);
        if constexpr (std::is_same_v<V, std::uint64_t>) {
          if (faults.is_corrupt(i) && adv != nullptr) {
            sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
            std::vector<std::uint64_t> lies(row);
            for (std::uint64_t& w : lies)
              w = adv->exchange_value(i, j, phase, king_round, w);
            encode(words, lies);
          }
        }
        channels.unicast(i, j, round_tag, std::move(words), charge);
      }
    }
    channels.end_round(net, faults, relay_adv);
  }

  /// Stores every value the last round delivered into out[at(q, receiver)].
  void receive(const carry_lists& carried, std::vector<V>& out) const {
    std::vector<V> row;
    for (graph::node_id j : participants)
      for (const sim::message& m : channels.inbox(j)) {
        const std::vector<std::size_t>& qs = carried[static_cast<std::size_t>(m.from)];
        decode(m.payload, qs.size(), row);
        for (std::size_t k = 0; k < row.size(); ++k)
          out[at(qs[k], j)] = std::move(row[k]);
      }
  }

  /// The dissemination round: sources[q] sends inputs[q]. Returns every
  /// node's initial values (V{} where nothing arrived).
  std::vector<V> disseminate(const std::vector<graph::node_id>& sources,
                             std::vector<V> inputs) {
    std::vector<V> vals(bits.size() * universe);
    carry_lists carried(universe);
    for (std::size_t q = 0; q < sources.size(); ++q) {
      NAB_ASSERT(channels.topology().is_active(sources[q]),
                 "phase-king source must participate");
      carried[static_cast<std::size_t>(sources[q])].push_back(q);
      vals[at(q, sources[q])] = std::move(inputs[q]);
    }
    round(carried, vals, /*phase=*/-1, /*king_round=*/false);
    receive(carried, vals);
    return vals;
  }

  /// f+1 phases of (all-to-all exchange, king round) over `cur`, in place.
  void agree(std::vector<V>& cur, int f) {
    const auto np = static_cast<int>(participants.size());
    NAB_ASSERT(np > 4 * f,
               "phase-king (simple variant) requires more than 4f participants");
    carry_lists all(universe), kings(universe);
    for (graph::node_id v : participants)
      for (std::size_t q = 0; q < bits.size(); ++q)
        all[static_cast<std::size_t>(v)].push_back(q);
    std::vector<V> maj(cur.size()), king_val(cur.size()), row;
    std::vector<int> mult(cur.size(), 0);
    std::vector<std::vector<V>> ballots(bits.size());
    sim::payload own;

    for (int phase = 0; phase <= f; ++phase) {
      // Round A: all-to-all exchange; per instance, take the most frequent
      // value (own value included). When every row heard equals the node's
      // own (the honest steady state), that is its own row, unanimously.
      round(all, cur, phase, /*king_round=*/false);
      for (graph::node_id v : participants) {
        const sim::message_list& inbox = channels.inbox(v);
        row.assign(cur.begin() + at(0, v), cur.begin() + at(0, v + 1));
        encode(own, row);
        if (std::all_of(inbox.begin(), inbox.end(),
                        [&](const sim::message& m) { return m.payload == own; })) {
          std::copy(row.begin(), row.end(), maj.begin() + at(0, v));
          std::fill_n(mult.begin() + at(0, v), row.size(),
                      1 + static_cast<int>(inbox.size()));
          continue;
        }
        for (std::size_t q = 0; q < bits.size(); ++q) ballots[q].assign(1, cur[at(q, v)]);
        for (const sim::message& m : inbox) {
          decode(m.payload, bits.size(), row);
          for (std::size_t q = 0; q < row.size(); ++q)
            ballots[q].push_back(std::move(row[q]));
        }
        for (std::size_t q = 0; q < bits.size(); ++q)
          tally(ballots[q], maj[at(q, v)], mult[at(q, v)]);
      }

      // Round B: each instance's king broadcasts its majority value; nodes
      // without a majority above n/2 + f adopt it.
      for (auto& qs : kings) qs.clear();
      for (std::size_t q = 0; q < bits.size(); ++q)
        kings[static_cast<std::size_t>(king(q, phase))].push_back(q);
      std::fill(king_val.begin(), king_val.end(), V{});
      round(kings, maj, phase, /*king_round=*/true);
      receive(kings, king_val);
      for (std::size_t q = 0; q < bits.size(); ++q)
        for (graph::node_id v : participants) {
          const std::size_t i = at(q, v);
          const bool confident = 2 * mult[i] > np + 2 * f;
          cur[i] = confident || v == king(q, phase) ? maj[i] : king_val[i];
        }
    }
  }
};

}  // namespace

pk_result phase_king_consensus(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults,
                               const std::vector<std::uint64_t>& initial, int f,
                               std::uint64_t value_bits, pk_adversary* adv,
                               relay_adversary* relay_adv) {
  NAB_ASSERT(initial.size() >= static_cast<std::size_t>(channels.topology().universe()),
             "initial values must cover the node universe");
  engine<std::uint64_t> e{channels, net, faults, {value_bits}, false, {}, adv, relay_adv};
  pk_result out{initial};
  const double t0 = net.elapsed();
  e.agree(out.decided, f);
  out.time = net.elapsed() - t0;
  return out;
}

pk_result phase_king_broadcast(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults, graph::node_id source,
                               std::uint64_t input, int f, std::uint64_t value_bits,
                               pk_adversary* adv, relay_adversary* relay_adv) {
  engine<std::uint64_t> e{channels, net, faults, {value_bits}, false, {}, adv, relay_adv};
  return phase_king_consensus(channels, net, faults, e.disseminate({source}, {input}), f,
                              value_bits, adv, relay_adv);
}

flags_outcome broadcast_flags_phase_king(channel_plan& channels, sim::network& net,
                                         const sim::fault_set& faults,
                                         const std::vector<bool>& flags, int f,
                                         const std::vector<graph::node_id>& sources,
                                         pk_adversary* adv, relay_adversary* relay_adv) {
  NAB_ASSERT(phase_king_admissible(channels.topology().active_count(), f),
             "phase-king flag broadcast requires more than 4f participants");
  const auto universe = static_cast<std::size_t>(channels.topology().universe());
  NAB_ASSERT(flags.size() >= universe, "flags must cover the node universe");
  flags_outcome out;
  out.agreed.assign(universe, std::vector<bool>(universe, false));
  if (sources.empty()) return out;
  const std::vector<std::uint64_t> one_bit(sources.size(), 1);
  engine<std::uint64_t> e{channels, net, faults, one_bit, true, {}, adv, relay_adv};
  std::vector<std::uint64_t> inputs;
  for (graph::node_id src : sources)
    inputs.push_back(flags[static_cast<std::size_t>(src)]);
  const double t0 = net.elapsed();
  std::vector<std::uint64_t> cur = e.disseminate(sources, std::move(inputs));
  e.agree(cur, f);
  out.time = net.elapsed() - t0;
  for (std::size_t q = 0; q < sources.size(); ++q)
    for (graph::node_id v : e.participants)
      out.agreed[static_cast<std::size_t>(sources[q])][static_cast<std::size_t>(v)] =
          cur[e.at(q, v)] != 0;
  return out;
}

claim_outcome broadcast_claims_phase_king(channel_plan& channels, sim::network& net,
                                          const sim::fault_set& faults,
                                          const std::vector<claim_instance>& instances,
                                          int f, relay_adversary* relay_adv) {
  NAB_ASSERT(phase_king_admissible(channels.topology().active_count(), f),
             "phase-king claim backend requires more than 4f participants — "
             "auto_select boundaries must reject this configuration up front");
  engine<value> e{channels, net, faults, {}, false, claim_traffic_tag, nullptr,
                  relay_adv};
  claim_outcome out;
  out.agreed.assign(instances.size(), std::vector<value>(e.universe));
  if (instances.empty()) return out;
  std::vector<graph::node_id> sources;
  std::vector<value> inputs;
  for (const claim_instance& inst : instances) {
    NAB_ASSERT(inst.value_bits > 0, "claim instance needs a wire size");
    e.bits.push_back(inst.value_bits + 16);  // 16-bit item header
    sources.push_back(inst.source);
    inputs.push_back(inst.input);
  }
  const double t0 = net.elapsed();
  std::vector<value> cur = e.disseminate(sources, std::move(inputs));
  e.agree(cur, f);
  for (std::size_t q = 0; q < instances.size(); ++q)
    for (graph::node_id v : e.participants)
      out.agreed[q][static_cast<std::size_t>(v)] = std::move(cur[e.at(q, v)]);
  out.time = net.elapsed() - t0;
  return out;
}

}  // namespace nab::bb
