#pragma once

#include <cstdint>
#include <vector>

#include "bb/channels.hpp"
#include "bb/phase_king.hpp"

namespace nab::bb {

/// The flag engine has no choices left: the one batched phase king picks its
/// two- or three-round phase from (participants, f). The enum and
/// core::session_config::flag_protocol remain for source compatibility and
/// are read by nothing.
enum class bb_protocol {
  auto_select,
};

/// Outcome of one classical Byzantine broadcast.
struct broadcast_outcome {
  /// decisions[v] = value decided by node v (meaningful for honest v only).
  std::vector<value> decisions;
  double time = 0.0;
};

/// The paper's "Broadcast Default": a capacity-oblivious classical BB
/// protocol used for the 1-bit flags of step 2.2 and the claim dumps of
/// Phase 3. Correct for any topology with connectivity >= 2f+1 (channels
/// emulate the complete graph) and more than 3f participants. Runs the
/// batched phase-king engine on one payload-valued instance; `time` covers
/// every round, dissemination included.
broadcast_outcome broadcast_default(channel_plan& channels, sim::network& net,
                                    const sim::fault_set& faults,
                                    graph::node_id source, const value& input, int f,
                                    std::uint64_t value_bits,
                                    pk_adversary* adv = nullptr,
                                    relay_adversary* relay_adv = nullptr);

/// Result of broadcasting one flag per participant (NAB step 2.2).
struct flags_outcome {
  /// agreed[source][v] = the bit node v decided for `source`'s flag.
  /// Indexed by node id over the universe (inactive entries unused).
  std::vector<std::vector<bool>> agreed;
  double time = 0.0;
};

/// Broadcasts a 1-bit flag from each node in `sources`, every source sharing
/// the rounds of the batched phase-king engine (bb/phase_king.cpp).
/// `flags[v]` is node v's honest input flag; corrupt nodes announce
/// whatever `adv` chooses. All active nodes of the channel plan's topology
/// participate as relays/voters (NAB runs this over the original network G
/// even as G_k shrinks; honest nodes simply ignore flags from nodes outside
/// V_k — hence the explicit source list). Polynomial message complexity and
/// a cost independent of L (the only property NAB's analysis uses).
flags_outcome broadcast_flags_phase_king(channel_plan& channels, sim::network& net,
                                         const sim::fault_set& faults,
                                         const std::vector<bool>& flags, int f,
                                         const std::vector<graph::node_id>& sources,
                                         pk_adversary* adv = nullptr,
                                         relay_adversary* relay_adv = nullptr);

}  // namespace nab::bb
