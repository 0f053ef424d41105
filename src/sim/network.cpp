#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::sim {

network::network(graph::digraph topology)
    : topo_(std::move(topology)),
      step_bits_(static_cast<std::size_t>(topo_.universe()) * topo_.universe(), 0),
      lifetime_bits_(step_bits_.size(), 0),
      pending_(static_cast<std::size_t>(topo_.universe())),
      inboxes_(static_cast<std::size_t>(topo_.universe())),
      trace_(ambient_trace()),
      faults_(ambient_link_faults()) {}

void network::send(message m) {
  if (!topo_.has_edge(m.from, m.to))
    throw error("network::send on nonexistent link " + std::to_string(m.from) + "->" +
                std::to_string(m.to));
  if (m.bits == 0 && !m.payload.empty())
    throw error("network::send of nonempty payload with bits == 0 on " +
                std::to_string(m.from) + "->" + std::to_string(m.to) +
                " (zero-bit messages model absent/default values and must be empty)");
  step_bits_[link_index(m.from, m.to)] += m.bits;
  if (trace_ != nullptr) trace_->record(steps_, m.from, m.to, m.tag, m.bits);
  // The channel may erase the copy: bits were spent, nothing is delivered.
  if (faults_ != nullptr && faults_->erase(m.from, m.to, universe())) return;
  pending_[static_cast<std::size_t>(m.to)].push_back(std::move(m));
}

bool network::lossy_transmit(graph::node_id u, graph::node_id v, std::uint64_t bits,
                             std::uint64_t tag) {
  charge(u, v, bits, tag);
  if (faults_ == nullptr) return true;
  const int budget = faults_->params().retry_budget;
  int retries = 0;
  while (faults_->erase(u, v, universe())) {
    if (retries >= budget) {
      obs::count(obs::counter::link_retry_exhaustions);
      obs::gauge_min(obs::gauge::retry_headroom, 0);
      return false;
    }
    ++retries;
    obs::count(obs::counter::link_retransmits);
    // The receiver's nack rides the reverse link when the topology has one
    // (the control plane is modeled reliable; see docs/RUNTIME.md).
    if (topo_.has_edge(v, u)) charge(v, u, 1, tag);
    charge(u, v, bits, tag);
  }
  if (retries > 0)
    obs::gauge_min(obs::gauge::retry_headroom, budget - retries);
  return true;
}

void network::charge(graph::node_id u, graph::node_id v, std::uint64_t bits,
                     std::uint64_t tag) {
  if (!topo_.has_edge(u, v))
    throw error("network::charge on nonexistent link " + std::to_string(u) + "->" +
                std::to_string(v));
  step_bits_[link_index(u, v)] += bits;
  if (trace_ != nullptr) trace_->record(steps_, u, v, tag, bits);
}

double network::end_step() {
  double duration = 0.0;
  // Only existing links are ever charged (charge() and send() reject the
  // rest), so the loaded links are the nonzero slots.
  for (graph::node_id u = 0; u < universe(); ++u)
    for (graph::node_id v = 0; v < universe(); ++v) {
      const std::uint64_t bits = step_bits_[link_index(u, v)];
      if (bits == 0) continue;
      // digraph::add_edge rejects cap <= 0, so every active link divides
      // cleanly; the assert guards against a future zero-capacity edge
      // representation silently producing an infinite tau.
      const graph::capacity_t cap = topo_.cap(u, v);
      NAB_ASSERT(cap > 0, "link with zero capacity carried traffic");
      double link_time = static_cast<double>(bits) / static_cast<double>(cap);
      // Per-link latency/capacity jitter: a fixed dilation factor per link
      // (exactly 1.0 with no fault model or at jitter amplitude 0).
      if (faults_ != nullptr) link_time *= faults_->time_dilation(u, v, universe());
      duration = std::max(duration, link_time);
      lifetime_bits_[link_index(u, v)] += bits;
      total_bits_ += bits;
    }
  NAB_ASSERT(std::isfinite(duration), "step duration tau must be finite");
  std::fill(step_bits_.begin(), step_bits_.end(), 0);
  for (std::size_t v = 0; v < pending_.size(); ++v) {
    inboxes_[v] = std::move(pending_[v]);
    pending_[v].clear();
  }
  elapsed_ += duration;
  ++steps_;
  return duration;
}

const message_list& network::inbox(graph::node_id v) const {
  NAB_ASSERT(v >= 0 && v < universe(), "inbox node out of range");
  return inboxes_[static_cast<std::size_t>(v)];
}

void network::clear_inboxes() {
  for (auto& box : inboxes_) box.clear();
}

std::uint64_t network::link_bits(graph::node_id u, graph::node_id v) const {
  NAB_ASSERT(u >= 0 && v >= 0 && u < universe() && v < universe(),
             "link_bits node out of range");
  return lifetime_bits_[link_index(u, v)];
}

}  // namespace nab::sim
