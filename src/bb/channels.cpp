#include "bb/channels.hpp"

#include <algorithm>
#include <compare>
#include <map>
#include <tuple>

#include "graph/connectivity.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::bb {
namespace {

/// Orders messages by what a relay forwards, (from, tag, bits, payload):
/// equal means one copy can serve them all.
std::strong_ordering copy_order(const sim::message& a, const sim::message& b) {
  return std::tie(a.from, a.tag, a.bits, a.payload) <=>
         std::tie(b.from, b.tag, b.bits, b.payload);
}

}  // namespace

std::vector<std::vector<graph::node_id>> route_table::decode(graph::node_id from,
                                                             graph::node_id to) const {
  std::vector<std::vector<graph::node_id>> out;
  for (const path_view p : at(from, to)) out.emplace_back(p.begin(), p.end());
  return out;
}

channel_plan::source_block channel_plan::build_routes_for_source(const graph::digraph& g,
                                                                 int f,
                                                                 graph::node_id u) {
  NAB_ASSERT(f >= 0, "fault budget must be non-negative");
  const int n = g.universe();
  source_block block;
  block.path_count.assign(static_cast<std::size_t>(n), 0);
  if (!g.is_active(u)) return block;

  // One residual network per source, warm-started across its n-1 sinks.
  graph::disjoint_path_finder finder(g);
  for (graph::node_id v = 0; v < n; ++v) {
    if (v == u || !g.is_active(v)) continue;
    if (g.has_edge(u, v)) {
      block.pool.push_back(u);
      block.pool.push_back(v);
      block.path_end.push_back(static_cast<std::uint32_t>(block.pool.size()));
      block.path_count[static_cast<std::size_t>(v)] = 1;
      ++block.pairs;
      continue;
    }
    // 2f+1 node-disjoint paths; infeasibility violates the paper's
    // connectivity precondition and is reported per pair.
    std::vector<std::vector<graph::node_id>> paths;
    try {
      paths = finder.find(u, v, 2 * f + 1);
    } catch (const error& e) {
      block.error = "channel_plan: pair (" + std::to_string(u) + "," +
                    std::to_string(v) + ") lacks 2f+1 disjoint paths: " + e.what();
      return block;
    }
    for (const auto& p : paths) {
      block.pool.insert(block.pool.end(), p.begin(), p.end());
      block.path_end.push_back(static_cast<std::uint32_t>(block.pool.size()));
    }
    block.path_count[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(paths.size());
    ++block.pairs;
  }
  block.flow_augmentations = finder.augmentations();
  return block;
}

channel_plan::route_table channel_plan::assemble(const graph::digraph& g,
                                                 std::vector<source_block> blocks) {
  const int n = g.universe();
  NAB_ASSERT(blocks.size() == static_cast<std::size_t>(n),
             "assemble needs one block per source");
  for (const auto& block : blocks)
    if (!block.error.empty()) throw error(block.error);

  route_table out;
  out.n_ = n;
  std::size_t pool_total = 0, paths_total = 0;
  for (const auto& block : blocks) {
    pool_total += block.pool.size();
    paths_total += block.path_end.size();
  }
  out.pool_.reserve(pool_total);
  out.path_end_.reserve(paths_total);
  out.pair_end_.reserve(static_cast<std::size_t>(n) * n);

  std::uint32_t paths_so_far = 0;
  for (const auto& block : blocks) {
    const std::uint32_t pool_base = static_cast<std::uint32_t>(out.pool_.size());
    out.pool_.insert(out.pool_.end(), block.pool.begin(), block.pool.end());
    for (const std::uint32_t e : block.path_end) out.path_end_.push_back(pool_base + e);
    for (int v = 0; v < n; ++v) {
      paths_so_far += block.path_count[static_cast<std::size_t>(v)];
      out.pair_end_.push_back(paths_so_far);
    }
    out.stats_.pairs += block.pairs;
    out.stats_.flow_augmentations += block.flow_augmentations;
  }
  return out;
}

channel_plan::route_table channel_plan::build_routes(const graph::digraph& g, int f) {
  const int n = g.universe();
  std::vector<source_block> blocks;
  blocks.reserve(static_cast<std::size_t>(n));
  for (graph::node_id u = 0; u < n; ++u) {
    blocks.push_back(build_routes_for_source(g, f, u));
    // Surface the failure immediately (same first-failing-pair error as the
    // per-pair reference builder).
    if (!blocks.back().error.empty()) throw error(blocks.back().error);
  }
  return assemble(g, std::move(blocks));
}

channel_plan::channel_plan(const graph::digraph& g, int f)
    : channel_plan(g, f,
                   std::make_shared<const route_table>(build_routes(g, f))) {}

channel_plan::channel_plan(const graph::digraph& g, int f,
                           std::shared_ptr<const route_table> routes)
    : inboxes_(static_cast<std::size_t>(g.universe())),
      topo_(g),
      f_(f),
      routes_(std::move(routes)),
      links_(static_cast<std::size_t>(g.universe()) * g.universe()),
      emulating_(static_cast<std::size_t>(g.universe()), 0) {
  NAB_ASSERT(routes_ != nullptr && routes_->universe() == g.universe(),
             "channel_plan route table does not match the topology");
  for (graph::node_id u = 0; u < g.universe(); ++u)
    for (graph::node_id v = 0; v < g.universe(); ++v)
      for (const route_table::path_view path : routes_->at(u, v))
        if (path.size() > 2) emulating_[static_cast<std::size_t>(u)] = 1;
}

void channel_plan::unicast(graph::node_id from, graph::node_id to, std::uint64_t tag,
                           sim::payload payload, std::uint64_t bits) {
  NAB_ASSERT(!routes_->at(from, to).empty(),
             "unicast between nodes with no planned route");
  queued_.push_back({from, to, tag, std::move(payload), bits});
}

void channel_plan::transmit(std::size_t idx, std::uint64_t group, sim::network& net,
                            const sim::fault_set& faults, bool tamperable) {
  const sim::message& m = queued_[idx];
  const auto n = static_cast<std::size_t>(topo_.universe());
  std::size_t p = first_path_[idx];
  for (const route_table::path_view path : routes_->at(m.from, m.to)) {
    // A hop sent by or after a corrupt relay may carry tampered content, so
    // it is charged for this path alone; every other hop is the group's one
    // copy on that link, transmitted (with its ARQ loop) by whichever path
    // of the group reaches it first. A path that loses a hop stops there.
    bool ok = true, tainted = false;
    for (std::size_t i = 0; ok && i + 1 < path.size(); ++i) {
      tainted = tainted || (tamperable && i > 0 && faults.is_corrupt(path[i]));
      if (tainted) {
        ok = net.lossy_transmit(path[i], path[i + 1], m.bits, m.tag);
        continue;
      }
      link_slot& link = links_[static_cast<std::size_t>(path[i]) * n + path[i + 1]];
      if (link.stamp != group) {
        link.stamp = group;
        link.ok = net.lossy_transmit(path[i], path[i + 1], m.bits, m.tag);
      }
      ok = link.ok;
    }
    path_state_[p++] = !ok      ? path_fate::lost
                       : tainted ? path_fate::tamperable
                                 : path_fate::intact;
  }
}

void channel_plan::deliver(std::size_t idx, relay_adversary* adv) {
  sim::message& m = queued_[idx];
  const path_fate* fate = path_state_.data() + first_path_[idx];
  const path_fate* fate_end = path_state_.data() + first_path_[idx + 1];
  // Every copy erased in transit: the receiver sees nothing and falls back
  // to its missing-message default (vanishingly rare within budget).
  if (std::count(fate, fate_end, path_fate::lost) == fate_end - fate) return;
  // No surviving copy crossed a tampering relay: every delivered copy is the
  // queued payload verbatim, so the majority is the payload itself — deliver
  // it by move without materializing per-route copies.
  if (std::find(fate, fate_end, path_fate::tamperable) == fate_end) {
    inboxes_[static_cast<std::size_t>(m.to)].push_back(std::move(m));
    return;
  }
  // Compromised: collect one copy per surviving route and majority-resolve.
  // Ties resolve to the lexicographically smallest payload so every honest
  // receiver applies the same deterministic rule.
  const route_table::route_view route_set = routes_->at(m.from, m.to);
  std::vector<sim::payload> copies;
  for (std::size_t p = 0; p < route_set.size(); ++p) {
    if (fate[p] == path_fate::lost) continue;
    sim::payload copy = m.payload;
    if (fate[p] == path_fate::tamperable) {
      sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
      const route_table::path_view path = route_set[p];
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

double channel_plan::end_round(sim::network& net, const sim::fault_set& faults,
                               relay_adversary* adv) {
  for (auto& box : inboxes_) box.clear();
  const std::size_t count = queued_.size();

  // Only a sender with an emulated route fans its copies out over relays,
  // so only its messages can share a link and merge. With no such sender in
  // the round (always on a complete graph), every message is one direct hop
  // and a group of its own: the walk reduces to one transmission with its
  // ARQ loop, delivered iff it got through, and no payload is compared.
  const auto emulated = [this](const sim::message& m) {
    return emulating_[static_cast<std::size_t>(m.from)] != 0;
  };
  if (std::none_of(queued_.begin(), queued_.end(), emulated)) {
    for (sim::message& m : queued_)
      if (net.lossy_transmit(m.from, m.to, m.bits, m.tag))
        inboxes_[static_cast<std::size_t>(m.to)].push_back(std::move(m));
    queued_.clear();
    return net.end_step();
  }

  first_path_.resize(count + 1);
  first_path_[0] = 0;
  for (std::size_t idx = 0; idx < count; ++idx)
    first_path_[idx + 1] =
        first_path_[idx] +
        static_cast<std::uint32_t>(routes_->at(queued_[idx].from, queued_[idx].to).size());
  path_state_.resize(first_path_[count]);

  // The other senders' messages are groups of their own. The emulating
  // senders' messages are cut into runs of equal consecutive copies (a
  // sender's row to every receiver, typically), and the runs are sorted by
  // content so that equal runs anywhere in the queue form one group.
  const bool tamperable = adv != nullptr;
  merge_order_.clear();
  runs_.clear();
  for (std::size_t idx = 0; idx < count; ++idx) {
    if (!emulated(queued_[idx])) {
      transmit(idx, ++stamp_, net, faults, tamperable);
      continue;
    }
    const auto pos = static_cast<std::uint32_t>(merge_order_.size());
    if (pos == 0 || copy_order(queued_[merge_order_.back()], queued_[idx]) != 0)
      runs_.push_back({pos, pos});
    merge_order_.push_back(static_cast<std::uint32_t>(idx));
    runs_.back().second = pos + 1;
  }
  std::sort(runs_.begin(), runs_.end(), [this](const auto& a, const auto& b) {
    const auto order =
        copy_order(queued_[merge_order_[a.first]], queued_[merge_order_[b.first]]);
    return order != 0 ? order < 0 : a.first < b.first;
  });
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    if (r == 0 || copy_order(queued_[merge_order_[runs_[r - 1].first]],
                             queued_[merge_order_[runs_[r].first]]) != 0)
      ++stamp_;
    for (std::uint32_t pos = runs_[r].first; pos < runs_[r].second; ++pos)
      transmit(merge_order_[pos], stamp_, net, faults, tamperable);
  }
  // Deliver in queue order.
  for (std::size_t idx = 0; idx < count; ++idx) deliver(idx, adv);
  queued_.clear();
  return net.end_step();
}

const sim::message_list& channel_plan::inbox(graph::node_id v) const {
  NAB_ASSERT(v >= 0 && v < static_cast<graph::node_id>(inboxes_.size()),
             "channel inbox out of range");
  return inboxes_[static_cast<std::size_t>(v)];
}

void channel_plan::reclaim_round_storage() {
  sim::message_list().swap(queued_);
  for (auto& box : inboxes_) sim::message_list().swap(box);
}

}  // namespace nab::bb
