#pragma once

#include <cstdint>
#include <vector>

#include "bb/channels.hpp"
#include "bb/eig.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::bb {

// One batched engine (bb/phase_king.cpp) runs the calls below, the step-2.2
// flags and the phase-king claim backend: all instances share 2f+3 rounds,
// each sending every ordered pair one unicast. Flag instance q's king in
// phase p is participants[(q + p) % np], otherwise participants[p]; either
// way each instance meets f+1 distinct kings, so at least one is honest.

/// Adversary hooks for corrupt participants of phase-king consensus.
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
};

/// Result of a phase-king run.
struct pk_result {
  /// decided[v] = final value at node v (meaningful for honest v).
  std::vector<std::uint64_t> decided;
  double time = 0.0;
};

/// Single-word phase-king consensus (the simple two-round-per-phase variant,
/// e.g. Attiya & Welch §5.2.5). f+1 phases; every honest node decides the
/// same value, equal to the common input when all honest inputs agree.
///
/// Resilience: requires participants > 4f (the price of its simplicity; use
/// EIG for optimal n > 3f resilience). The library's broadcast_default picks
/// automatically.
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
