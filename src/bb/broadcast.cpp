#include "bb/broadcast.hpp"

#include "bb/claim_bcast.hpp"
#include "util/assert.hpp"

namespace nab::bb {

broadcast_outcome broadcast_default(channel_plan& channels, sim::network& net,
                                    const sim::fault_set& faults,
                                    graph::node_id source, const value& input, int f,
                                    std::uint64_t value_bits, bb_protocol protocol,
                                    eig_adversary* eig_adv, pk_adversary* pk_adv,
                                    relay_adversary* relay_adv) {
  const auto participants = channels.topology().active_nodes();
  bb_protocol chosen = protocol;
  if (chosen == bb_protocol::auto_select) {
    chosen = (phase_king_admissible(participants.size(), f) && input.size() <= 1)
                 ? bb_protocol::phase_king
                 : bb_protocol::eig;
  }

  broadcast_outcome out;
  if (chosen == bb_protocol::phase_king) {
    NAB_ASSERT(phase_king_admissible(participants.size(), f),
               "phase-king broadcast requires more than 4f participants — "
               "auto_select boundaries must reject this configuration up front");
    NAB_ASSERT(input.size() <= 1, "phase-king broadcast carries single-word values");
    const std::uint64_t word = input.empty() ? 0 : input[0];
    const pk_result pk = phase_king_broadcast(channels, net, faults, source, word, f,
                                              value_bits, pk_adv, relay_adv);
    out.decisions.resize(pk.decided.size());
    for (std::size_t v = 0; v < pk.decided.size(); ++v)
      out.decisions[v] = {pk.decided[v]};
    out.time = pk.time;
    return out;
  }

  const eig_result eig = eig_broadcast_all(channels, net, faults,
                                           {{source, input}}, f, value_bits, eig_adv,
                                           relay_adv);
  out.decisions = eig.decisions[0];
  out.time = eig.time;
  return out;
}

flags_outcome broadcast_flags(channel_plan& channels, sim::network& net,
                              const sim::fault_set& faults,
                              const std::vector<bool>& flags, int f,
                              const std::vector<graph::node_id>& sources,
                              eig_adversary* adv, relay_adversary* relay_adv) {
  const auto participants = channels.topology().active_nodes();
  const int universe = channels.topology().universe();
  NAB_ASSERT(flags.size() >= static_cast<std::size_t>(universe),
             "flags must cover the node universe");

  std::vector<eig_instance> instances;
  instances.reserve(sources.size());
  for (graph::node_id v : sources)
    instances.push_back({v, {flags[static_cast<std::size_t>(v)] ? 1u : 0u}});

  const eig_result eig =
      eig_broadcast_all(channels, net, faults, instances, f, /*value_bits=*/1, adv,
                        relay_adv);

  flags_outcome out;
  out.agreed.assign(static_cast<std::size_t>(universe),
                    std::vector<bool>(static_cast<std::size_t>(universe), false));
  for (std::size_t q = 0; q < instances.size(); ++q) {
    const graph::node_id src = instances[q].source;
    for (graph::node_id v : participants)
      out.agreed[static_cast<std::size_t>(src)][static_cast<std::size_t>(v)] =
          !eig.decisions[q][static_cast<std::size_t>(v)].empty() &&
          eig.decisions[q][static_cast<std::size_t>(v)][0] != 0;
  }
  out.time = eig.time;
  return out;
}

}  // namespace nab::bb
