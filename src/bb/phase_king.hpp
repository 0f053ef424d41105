#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bb/channels.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// Logical value carried by classical BB: opaque words. The empty vector is
/// the *default value* that the model substitutes for missing messages.
/// Arena-backed (sim/run_arena.hpp): every relayed copy of a value inside a
/// run draws from the per-run arena when one is ambient.
using value = sim::payload;

// One batched engine (bb/phase_king.cpp) runs the calls below, the step-2.2
// flags, the phase-king claim backend and broadcast_default: all instances
// share every round, each sending every ordered pair one unicast. Flag
// instance q's king in phase p is participants[(q + p) % np], otherwise
// participants[p]; either way each instance meets f+1 distinct kings, so at
// least one is honest.
//
// The engine picks the phase from (np, f), np = participants:
// - np > 4f: two rounds (exchange, king; Attiya & Welch §5.2.5), 2f+3
//   rounds in all with the dissemination round;
// - 3f < np <= 4f: three rounds (exchange, propose, king; Berman, Garay &
//   Perry, FOCS 1989), 3f+4 rounds in all. A node proposes w when it saw at
//   least np - f copies of w, else ⊥; it adopts a w proposed more than f
//   times and is strong when w was proposed at least np - f times; nodes
//   that are not strong adopt the king's value.

/// Adversary hooks for corrupt participants of phase-king consensus. Every
/// hook receives what an honest node would send and may return anything.
class pk_adversary {
 public:
  virtual ~pk_adversary() = default;

  /// Value a corrupt node reports to `receiver` for one instance, called in
  /// instance order. `phase` counts from 0 (-1 = the dissemination round);
  /// `is_king_round` marks a king's broadcast.
  virtual std::uint64_t exchange_value(graph::node_id sender, graph::node_id receiver,
                                       int phase, bool is_king_round,
                                       std::uint64_t honest) {
    (void)sender;
    (void)receiver;
    (void)phase;
    (void)is_king_round;
    return honest;
  }

  /// exchange_value for payload-valued instances (claims, broadcast_default).
  virtual value exchange_payload(graph::node_id sender, graph::node_id receiver,
                                 int phase, bool is_king_round, const value& honest) {
    (void)sender;
    (void)receiver;
    (void)phase;
    (void)is_king_round;
    return honest;
  }

  /// Proposal a corrupt node sends to `receiver` in a three-round phase's
  /// middle round (nullopt = ⊥). By default a real proposal passes through
  /// exchange_value, so a value liar lies here too, and ⊥ stays ⊥.
  virtual std::optional<std::uint64_t> propose_value(
      graph::node_id sender, graph::node_id receiver, int phase,
      const std::optional<std::uint64_t>& honest) {
    if (!honest) return honest;
    return exchange_value(sender, receiver, phase, false, *honest);
  }

  /// propose_value for payload-valued instances.
  virtual std::optional<value> propose_payload(graph::node_id sender,
                                               graph::node_id receiver, int phase,
                                               const std::optional<value>& honest) {
    if (!honest) return honest;
    return exchange_payload(sender, receiver, phase, false, *honest);
  }
};

/// Result of a phase-king run.
struct pk_result {
  /// decided[v] = final value at node v (meaningful for honest v).
  std::vector<std::uint64_t> decided;
  double time = 0.0;
};

/// Single-word phase-king consensus over f+1 phases; every honest node
/// decides the same value, equal to the common input when all honest inputs
/// agree. Needs more than 3f participants.
///
/// `initial[v]` is node v's input (indexed by node id over the topology
/// universe; only active-node entries are read).
pk_result phase_king_consensus(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults,
                               const std::vector<std::uint64_t>& initial, int f,
                               std::uint64_t value_bits, pk_adversary* adv = nullptr,
                               relay_adversary* relay_adv = nullptr);

/// Byzantine broadcast built on phase-king: the source disseminates its
/// value (one round), then everyone runs consensus on what they received
/// (`time` covers the consensus rounds). Validity holds because an honest
/// source gives all honest nodes equal inputs.
pk_result phase_king_broadcast(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults, graph::node_id source,
                               std::uint64_t input, int f, std::uint64_t value_bits,
                               pk_adversary* adv = nullptr,
                               relay_adversary* relay_adv = nullptr);

}  // namespace nab::bb
