#pragma once

// The per-path reference channel: Appendix D's emulation with every hop of
// every path charged on its own, however many paths carry the same copy over
// one link. It is the accounting channel_plan used before relays forwarded
// identical content once, kept here as the oracle the merged channel is
// checked against: identical inboxes, and never more bits on any link.

#include <algorithm>
#include <map>
#include <vector>

#include "bb/channels.hpp"

namespace nab::bb {

class reference_channel : public channel_plan {
 public:
  using channel_plan::channel_plan;

  double end_round(sim::network& net, const sim::fault_set& faults,
                   relay_adversary* adv = nullptr) override {
    for (auto& box : inboxes_) box.clear();
    const bool lossy_net = net.link_faults() != nullptr;
    std::vector<char> arrived;

    for (sim::message& m : queued_) {
      const route_table::route_view route_set = routes(m.from, m.to);
      // Transmit every link of every route (each hop runs its own ARQ loop;
      // a copy survives iff every hop of its path got through, and a
      // dropped copy never charges the hops past the failure).
      bool any_compromised = false;
      std::size_t live = 0;
      arrived.clear();
      for (const route_table::path_view path : route_set) {
        bool ok = true;
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          if (!net.lossy_transmit(path[i], path[i + 1], m.bits, m.tag)) {
            ok = false;
            break;
          }
        if (lossy_net) arrived.push_back(ok ? 1 : 0);
        if (!ok) continue;
        ++live;
        for (std::size_t i = 1; i + 1 < path.size(); ++i)
          if (faults.is_corrupt(path[i])) any_compromised = true;
      }
      if (live == 0) continue;
      if (!any_compromised || adv == nullptr) {
        inboxes_[static_cast<std::size_t>(m.to)].push_back(std::move(m));
        continue;
      }
      // Compromised: one copy per surviving route, majority with ties to
      // the lexicographically smallest payload.
      std::vector<sim::payload> copies;
      std::size_t path_idx = 0;
      for (const route_table::path_view path : route_set) {
        const std::size_t idx = path_idx++;
        if (lossy_net && arrived[idx] == 0) continue;
        bool compromised_relay = false;
        for (std::size_t i = 1; i + 1 < path.size(); ++i)
          if (faults.is_corrupt(path[i])) compromised_relay = true;
        sim::payload copy = m.payload;
        if (compromised_relay) {
          sim::scoped_run_arena suspend_pooling(nullptr);
          const std::vector<graph::node_id> path_nodes(path.begin(), path.end());
          if (auto forged = adv->tamper(path_nodes, m)) copy = std::move(*forged);
        }
        copies.push_back(std::move(copy));
      }
      std::map<sim::payload, int> votes;
      for (const auto& c : copies) ++votes[c];
      const auto winner =
          std::max_element(votes.begin(), votes.end(), [](const auto& a, const auto& b) {
            return a.second < b.second || (a.second == b.second && b.first < a.first);
          });
      sim::message delivered = m;
      delivered.payload = winner->first;
      inboxes_[static_cast<std::size_t>(m.to)].push_back(std::move(delivered));
    }
    queued_.clear();
    return net.end_step();
  }
};

}  // namespace nab::bb
