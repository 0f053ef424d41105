#include "bb/phase_king.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <type_traits>

#include "bb/broadcast.hpp"
#include "util/assert.hpp"

namespace nab::bb {
namespace {

/// Engine scratch lives in the ambient run arena when one is installed.
template <typename T>
using scratch = sim::pooled_vector<T>;
/// carried[v] = the instances node v sends in a round, ascending.
using carry_lists = scratch<scratch<std::size_t>>;
using word_span = std::span<const std::uint64_t>;

// Row codecs: a round's payload encodes the sender's values of the instances
// it carries, in order, with no per-item header. Word values are packed at
// the bit width of the row's widest value rounded up to a power of two
// ([width, packed words...]: n honest flags take 1 + n/64 words); multi-word
// values travel as [len, words...] each. A proposal row (the three-round
// phase's middle round) is a word row of presence bits followed by the row
// of values, ⊥ entries encoded as V{}, so ⊥ differs from every value, the
// empty default included. Equal rows encode equally, and a short or
// tampered payload decodes to its well-formed prefix.
void encode(sim::payload& out, const scratch<std::uint64_t>& row) {
  std::uint64_t any = 0;
  for (std::uint64_t w : row) any |= w;
  const std::size_t width = std::bit_ceil(static_cast<std::size_t>(std::bit_width(any)));
  const std::size_t per = 64 / width;
  out.assign(1 + (row.size() + per - 1) / per, 0);
  out[0] = width;
  for (std::size_t k = 0; k < row.size(); ++k)
    out[1 + k / per] |= row[k] << (k % per * width);
}
void encode(sim::payload& out, const scratch<value>& row) {
  out.clear();
  for (const value& v : row) {
    out.push_back(v.size());
    out.insert(out.end(), v.begin(), v.end());
  }
}
template <typename V>
void encode(sim::payload& out, const scratch<std::optional<V>>& row) {
  scratch<std::uint64_t> present;
  scratch<V> vals;
  for (const std::optional<V>& p : row) {
    present.push_back(p.has_value() ? 1 : 0);
    vals.push_back(p.value_or(V{}));
  }
  sim::payload tail;
  encode(out, present);
  encode(tail, vals);
  out.insert(out.end(), tail.begin(), tail.end());
}

// Decoders read at most `count` items and return how many words they used.
std::size_t decode(word_span in, std::size_t count, scratch<std::uint64_t>& row) {
  row.clear();
  if (in.empty() || in[0] == 0 || in[0] > 64) return in.size();
  const auto width = static_cast<std::size_t>(in[0]);
  const std::size_t per = 64 / width;
  const std::size_t used = std::min(in.size(), 1 + (count + per - 1) / per);
  const std::uint64_t mask = ~std::uint64_t{0} >> (64 - width);
  for (std::size_t k = 0; k < count && 1 + k / per < used; ++k)
    row.push_back(in[1 + k / per] >> (k % per * width) & mask);
  return used;
}
std::size_t decode(word_span in, std::size_t count, scratch<value>& row) {
  row.clear();
  std::size_t pos = 0;
  for (; row.size() < count && pos < in.size() && in[pos] < in.size() - pos;
       pos += 1 + static_cast<std::size_t>(in[pos])) {
    const auto first = in.begin() + static_cast<std::ptrdiff_t>(pos + 1);
    row.emplace_back(first, first + static_cast<std::ptrdiff_t>(in[pos]));
  }
  return pos;
}
template <typename V>
std::size_t decode(word_span in, std::size_t count, scratch<std::optional<V>>& row) {
  scratch<std::uint64_t> present;
  scratch<V> vals;
  const std::size_t used = decode(in, count, present);
  const std::size_t rest = decode(in.subspan(used), present.size(), vals);
  row.clear();
  for (std::size_t k = 0; k < vals.size(); ++k)
    row.push_back(present[k] != 0 ? std::optional<V>(std::move(vals[k])) : std::nullopt);
  return used + rest;
}

// What a corrupt sender sends instead of each row entry.
std::uint64_t lie(pk_adversary& adv, graph::node_id i, graph::node_id j, int phase,
                  bool king_round, std::uint64_t honest) {
  return adv.exchange_value(i, j, phase, king_round, honest);
}
value lie(pk_adversary& adv, graph::node_id i, graph::node_id j, int phase,
          bool king_round, const value& honest) {
  return adv.exchange_payload(i, j, phase, king_round, honest);
}
std::optional<std::uint64_t> lie(pk_adversary& adv, graph::node_id i, graph::node_id j,
                                 int phase, bool,
                                 const std::optional<std::uint64_t>& honest) {
  return adv.propose_value(i, j, phase, honest);
}
std::optional<value> lie(pk_adversary& adv, graph::node_id i, graph::node_id j, int phase,
                         bool, const std::optional<value>& honest) {
  return adv.propose_payload(i, j, phase, honest);
}

/// The value a row entry holds: the entry itself, or nullptr for ⊥.
template <typename V>
V* held(V& x) {
  return &x;
}
template <typename V>
V* held(std::optional<V>& x) {
  return x ? &*x : nullptr;
}

/// Most frequent value of `ballot` (ties to the smallest) and its count.
template <typename V>
void tally(scratch<V>& ballot, V& winner, int& count) {
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
  pk_adversary* adv;
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

  /// Sends one round of value rows (T = V) or proposal rows (T = optional<V>,
  /// one more bit per instance for the ⊥ marker); corrupt senders' entries
  /// pass through the adversary in (receiver, instance) order.
  template <typename Vals>
  void round(const carry_lists& carried, const Vals& vals, int phase, bool king_round) {
    using T = typename Vals::value_type;
    const std::uint64_t round_tag = phase < 0 ? 0 : static_cast<std::uint64_t>(phase);
    constexpr std::uint64_t marker = std::is_same_v<T, V> ? 0 : 1;
    scratch<T> row;
    sim::payload encoded;
    for (graph::node_id i : participants) {
      const scratch<std::size_t>& qs = carried[static_cast<std::size_t>(i)];
      if (qs.empty()) continue;
      std::uint64_t charge = 0;
      row.clear();
      for (std::size_t q : qs) {
        charge += bits[q] + marker;
        row.push_back(vals[at(q, i)]);
      }
      encode(encoded, row);
      for (graph::node_id j : participants) {
        if (j == i) continue;
        sim::payload words(encoded);
        if (faults.is_corrupt(i) && adv != nullptr) {
          sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
          scratch<T> lies(row);
          for (T& w : lies) w = lie(*adv, i, j, phase, king_round, w);
          encode(words, lies);
        }
        channels.unicast(i, j, round_tag, std::move(words), charge);
      }
    }
    channels.end_round(net, faults, relay_adv);
  }

  /// Stores every value the last round delivered into out[at(q, receiver)].
  void receive(const carry_lists& carried, scratch<V>& out) const {
    scratch<V> row;
    for (graph::node_id j : participants)
      for (const sim::message& m : channels.inbox(j)) {
        const scratch<std::size_t>& qs = carried[static_cast<std::size_t>(m.from)];
        decode(m.payload, qs.size(), row);
        for (std::size_t k = 0; k < row.size(); ++k)
          out[at(qs[k], j)] = std::move(row[k]);
      }
  }

  /// After an all-to-all round of `mine`: per instance, the most frequent
  /// value each participant holds among its own entry and the rows it was
  /// delivered (⊥ entries do not vote), and that value's count. When every
  /// row heard equals the node's own (the honest steady state), that is its
  /// own row, unanimously.
  template <typename Vals>
  void vote(const Vals& mine, scratch<V>& maj, scratch<int>& mult) const {
    scratch<typename Vals::value_type> row;
    scratch<scratch<V>> ballots(bits.size());
    sim::payload own;
    for (graph::node_id v : participants) {
      const sim::message_list& inbox = channels.inbox(v);
      row.assign(mine.begin() + at(0, v), mine.begin() + at(0, v + 1));
      encode(own, row);
      if (std::all_of(inbox.begin(), inbox.end(),
                      [&](const sim::message& m) { return m.payload == own; })) {
        for (std::size_t q = 0; q < row.size(); ++q) {
          V* x = held(row[q]);
          maj[at(q, v)] = x != nullptr ? std::move(*x) : V{};
          mult[at(q, v)] = x != nullptr ? 1 + static_cast<int>(inbox.size()) : 0;
        }
        continue;
      }
      for (std::size_t q = 0; q < bits.size(); ++q) {
        ballots[q].clear();
        if (V* x = held(row[q])) ballots[q].push_back(std::move(*x));
      }
      for (const sim::message& m : inbox) {
        decode(m.payload, bits.size(), row);
        for (std::size_t q = 0; q < row.size(); ++q)
          if (V* x = held(row[q])) ballots[q].push_back(std::move(*x));
      }
      for (std::size_t q = 0; q < bits.size(); ++q)
        tally(ballots[q], maj[at(q, v)], mult[at(q, v)]);
    }
  }

  /// The dissemination round: sources[q] sends inputs[q]. Returns every
  /// node's initial values (V{} where nothing arrived).
  scratch<V> disseminate(const std::vector<graph::node_id>& sources, scratch<V> inputs) {
    scratch<V> vals(bits.size() * universe);
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

  /// f+1 phases over `cur`, in place: two rounds each when np > 4f, else
  /// three (see bb/phase_king.hpp).
  template <typename Vals>
  void agree(Vals& cur, int f) {
    const auto np = static_cast<int>(participants.size());
    NAB_ASSERT(np > 3 * f, "phase king needs more than 3f participants");
    const bool three_rounds = np <= 4 * f;
    carry_lists all(universe), kings(universe);
    for (graph::node_id v : participants)
      for (std::size_t q = 0; q < bits.size(); ++q)
        all[static_cast<std::size_t>(v)].push_back(q);
    scratch<V> maj(cur.size()), king_val(cur.size());
    scratch<int> mult(cur.size(), 0);
    scratch<std::optional<V>> proposal;

    for (int phase = 0; phase <= f; ++phase) {
      // Exchange round: per instance, the most frequent value heard.
      round(all, cur, phase, /*king_round=*/false);
      vote(cur, maj, mult);
      if (three_rounds) {
        // Propose round: propose a value seen np - f times, else ⊥; adopt a
        // value proposed more than f times (at most one can be: it has an
        // honest proposer), else keep the own value.
        proposal.assign(cur.size(), std::nullopt);
        for (std::size_t i = 0; i < cur.size(); ++i)
          if (mult[i] >= np - f) proposal[i] = maj[i];
        round(all, proposal, phase, /*king_round=*/false);
        vote(proposal, maj, mult);
        for (std::size_t i = 0; i < cur.size(); ++i)
          if (mult[i] <= f) maj[i] = cur[i];
      }

      // King round: each instance's king broadcasts its value; a node keeps
      // its own when it is confident (a majority above n/2 + f), or strong
      // (np - f proposals) in the three-round phase, and else adopts it.
      for (auto& qs : kings) qs.clear();
      for (std::size_t q = 0; q < bits.size(); ++q)
        kings[static_cast<std::size_t>(king(q, phase))].push_back(q);
      std::fill(king_val.begin(), king_val.end(), V{});
      round(kings, maj, phase, /*king_round=*/true);
      receive(kings, king_val);
      for (std::size_t q = 0; q < bits.size(); ++q)
        for (graph::node_id v : participants) {
          const std::size_t i = at(q, v);
          const bool keep = three_rounds ? mult[i] >= np - f : 2 * mult[i] > np + 2 * f;
          cur[i] = keep || v == king(q, phase) ? maj[i] : king_val[i];
        }
    }
  }

  /// Dissemination then agreement; `time` is what both took.
  scratch<V> run(const std::vector<graph::node_id>& sources, scratch<V> inputs, int f,
                 double& time) {
    const double t0 = net.elapsed();
    scratch<V> cur = disseminate(sources, std::move(inputs));
    agree(cur, f);
    time = net.elapsed() - t0;
    return cur;
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
  engine<std::uint64_t> e{channels, net, faults, {value_bits}, false, adv, relay_adv};
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
  engine<std::uint64_t> e{channels, net, faults, {value_bits}, false, adv, relay_adv};
  const scratch<std::uint64_t> initial = e.disseminate({source}, {input});
  return phase_king_consensus(
      channels, net, faults, std::vector<std::uint64_t>(initial.begin(), initial.end()), f,
      value_bits, adv, relay_adv);
}

broadcast_outcome broadcast_default(channel_plan& channels, sim::network& net,
                                    const sim::fault_set& faults,
                                    graph::node_id source, const value& input, int f,
                                    std::uint64_t value_bits, pk_adversary* adv,
                                    relay_adversary* relay_adv) {
  engine<value> e{channels, net, faults, {value_bits}, false, adv, relay_adv};
  broadcast_outcome out;
  const scratch<value> cur = e.run({source}, {input}, f, out.time);
  out.decisions.assign(cur.begin(), cur.end());
  return out;
}

flags_outcome broadcast_flags_phase_king(channel_plan& channels, sim::network& net,
                                         const sim::fault_set& faults,
                                         const std::vector<bool>& flags, int f,
                                         const std::vector<graph::node_id>& sources,
                                         pk_adversary* adv, relay_adversary* relay_adv) {
  const auto universe = static_cast<std::size_t>(channels.topology().universe());
  NAB_ASSERT(flags.size() >= universe, "flags must cover the node universe");
  flags_outcome out;
  out.agreed.assign(universe, std::vector<bool>(universe, false));
  if (sources.empty()) return out;
  const std::vector<std::uint64_t> one_bit(sources.size(), 1);
  engine<std::uint64_t> e{channels, net, faults, one_bit, true, adv, relay_adv};
  scratch<std::uint64_t> inputs;
  for (graph::node_id src : sources)
    inputs.push_back(flags[static_cast<std::size_t>(src)]);
  const scratch<std::uint64_t> cur = e.run(sources, std::move(inputs), f, out.time);
  for (std::size_t q = 0; q < sources.size(); ++q)
    for (graph::node_id v : e.participants)
      out.agreed[static_cast<std::size_t>(sources[q])][static_cast<std::size_t>(v)] =
          cur[e.at(q, v)] != 0;
  return out;
}

}  // namespace nab::bb
