#pragma once

// The Pease-Shostak-Lamport exponential information gathering broadcast
// [19], the paper's literal "Broadcast Default": f+1 rounds, correct for any
// n > 3f, Theta(n^f) messages. libnab runs the batched phase king instead;
// EIG stays here as the oracle the phase king and the collapsed claim
// backend are pinned against, the way reference_channel.hpp pins the merged
// channel.

#include <cstdint>
#include <vector>

#include "bb/broadcast.hpp"
#include "bb/channels.hpp"
#include "bb/claim_bcast.hpp"
#include "bb/phase_king.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// Adversary hooks for corrupt participants of EIG broadcast. Every method
/// receives the value an honest node would have sent and may return anything
/// (including the empty/default value, which models "not sending").
class eig_adversary {
 public:
  virtual ~eig_adversary() = default;

  /// Round-1 value a corrupt *source* sends to `receiver` (equivocation
  /// point: different receivers may get different values).
  virtual value source_value(graph::node_id source, graph::node_id receiver,
                             const value& honest) {
    (void)source;
    (void)receiver;
    return honest;
  }

  /// Value a corrupt node relays for EIG label `sigma` to `receiver` in
  /// rounds >= 2.
  virtual value relay_value(graph::node_id sender, graph::node_id receiver,
                            const std::vector<graph::node_id>& sigma,
                            const value& honest) {
    (void)sender;
    (void)receiver;
    (void)sigma;
    return honest;
  }
};

/// One broadcast instance: `source` wants to broadcast `input`.
struct eig_instance {
  graph::node_id source = 0;
  value input;
  /// Wire size charged per transmitted value for this instance; 0 means
  /// "use the call-level value_bits".
  std::uint64_t value_bits = 0;
};

/// Result of a batch of EIG broadcasts.
struct eig_result {
  /// decisions[q][v] = what node v decided for instance q. Entries for
  /// corrupt v are whatever the protocol state happened to be — only honest
  /// nodes' decisions are meaningful.
  std::vector<std::vector<value>> decisions;
  /// Simulated time consumed (all instances share rounds).
  double time = 0.0;
};

/// Exponential Information Gathering Byzantine broadcast. Runs f+1 rounds;
/// correct whenever the number of participants (active nodes of the channel
/// plan's topology) exceeds 3f.
///
/// All instances run simultaneously, sharing the f+1 communication rounds —
/// this is how NAB broadcasts n 1-bit flags "in parallel" without paying n
/// sequential protocol executions.
///
/// `value_bits` is the wire size charged per transmitted value; label
/// routing overhead is charged on top (8 bits per label entry). `tag`
/// labels every round's unicasts for trace-level wire accounting (the
/// Phase-3 claim path passes bb::claim_traffic_tag; flags keep 0).
eig_result eig_broadcast_all(channel_plan& channels, sim::network& net,
                             const sim::fault_set& faults,
                             const std::vector<eig_instance>& instances, int f,
                             std::uint64_t value_bits, eig_adversary* adv = nullptr,
                             relay_adversary* relay_adv = nullptr,
                             std::uint64_t tag = 0);

/// The step-2.2 flag broadcast on EIG: one 1-bit instance per source, all
/// sharing the f+1 rounds (the shape of broadcast_flags_phase_king).
flags_outcome eig_flags(channel_plan& channels, sim::network& net,
                        const sim::fault_set& faults, const std::vector<bool>& flags,
                        int f, const std::vector<graph::node_id>& sources,
                        eig_adversary* adv = nullptr,
                        relay_adversary* relay_adv = nullptr);

/// DC1 claim dissemination on EIG over the full transcripts, every unicast
/// tagged claim_traffic_tag (the shape of broadcast_claims).
claim_outcome eig_claims(channel_plan& channels, sim::network& net,
                         const sim::fault_set& faults,
                         const std::vector<claim_instance>& instances, int f,
                         eig_adversary* adv = nullptr,
                         relay_adversary* relay_adv = nullptr);

}  // namespace nab::bb
