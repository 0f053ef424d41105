#pragma once

#include <cstdint>
#include <vector>

#include "bb/channels.hpp"
#include "bb/eig.hpp"
#include "bb/phase_king.hpp"

namespace nab::bb {

/// Which classical BB engine to run underneath broadcast_default.
enum class bb_protocol {
  auto_select,  ///< phase-king when participants > 4f and value fits a word, else EIG
  eig,          ///< PSL'80 exponential information gathering (n > 3f)
  phase_king,   ///< simple phase-king (n > 4f, single-word values)
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
/// emulate the complete graph) and more than 3f participants.
broadcast_outcome broadcast_default(channel_plan& channels, sim::network& net,
                                    const sim::fault_set& faults,
                                    graph::node_id source, const value& input, int f,
                                    std::uint64_t value_bits,
                                    bb_protocol protocol = bb_protocol::auto_select,
                                    eig_adversary* eig_adv = nullptr,
                                    pk_adversary* pk_adv = nullptr,
                                    relay_adversary* relay_adv = nullptr);

/// Result of broadcasting one flag per participant (NAB step 2.2).
struct flags_outcome {
  /// agreed[source][v] = the bit node v decided for `source`'s flag.
  /// Indexed by node id over the universe (inactive entries unused).
  std::vector<std::vector<bool>> agreed;
  double time = 0.0;
};

/// Broadcasts a 1-bit flag from each node in `sources`, batched over shared
/// EIG rounds. `flags[v]` is node v's honest input flag; corrupt nodes
/// announce whatever `adv` chooses. All active nodes of the channel plan's
/// topology participate as relays/voters (NAB runs this over the original
/// network G even as G_k shrinks; honest nodes simply ignore flags from
/// nodes outside V_k — hence the explicit source list).
flags_outcome broadcast_flags(channel_plan& channels, sim::network& net,
                              const sim::fault_set& faults,
                              const std::vector<bool>& flags, int f,
                              const std::vector<graph::node_id>& sources,
                              eig_adversary* adv = nullptr,
                              relay_adversary* relay_adv = nullptr);

/// Phase-king variant of broadcast_flags, defined with the batched engine in
/// bb/phase_king.cpp: every source shares the same 2f+3 rounds. Needs
/// participants > 4f — checked by bb::phase_king_admissible
/// (bb/claim_bcast.hpp) at entry, with the same predicate applied by every
/// auto_select boundary (core::session validates explicit selections at
/// construction), so an undersized participant set is a clean
/// registry/session-time rejection, never a late invariant failure mid-run.
/// Polynomial message complexity (vs EIG's n^f), at the cost of 2f+3 rounds
/// instead of f+1. The session exposes the choice; either way the cost is
/// independent of L (the only property NAB's analysis uses).
flags_outcome broadcast_flags_phase_king(channel_plan& channels, sim::network& net,
                                         const sim::fault_set& faults,
                                         const std::vector<bool>& flags, int f,
                                         const std::vector<graph::node_id>& sources,
                                         pk_adversary* adv = nullptr,
                                         relay_adversary* relay_adv = nullptr);

}  // namespace nab::bb
