#pragma once

#include <cstdint>
#include <vector>

#include "bb/channels.hpp"
#include "graph/digraph.hpp"

namespace nab::bb {

/// Per-(sender, receiver) item batch for one synchronous round. All items a
/// node sends another in one round travel as a single logical unicast
/// (synchronous rounds make per-item messages and one batch
/// indistinguishable on the wire); bits are accumulated per item, so the
/// charge is exactly what per-item messages would have cost. Shared by the
/// claim broadcast and the EIG oracle in tests/bb/ — one implementation of
/// the wire-batching contract.
struct round_batch {
  sim::payload payload;
  std::uint64_t bits = 0;
};

class round_batches {
 public:
  /// `participants` must outlive the object (callers keep the active-node
  /// vector alive for the whole broadcast anyway).
  round_batches(int universe, const std::vector<graph::node_id>& participants)
      : universe_(universe),
        participants_(participants),
        batches_(static_cast<std::size_t>(universe) * universe) {}

  round_batch& at(graph::node_id from, graph::node_id to) {
    return batches_[static_cast<std::size_t>(from) * universe_ + to];
  }

  /// Queues every non-empty batch as one unicast tagged `tag` and clears
  /// the slots for the next round.
  void flush(channel_plan& channels, std::uint64_t tag) {
    for (graph::node_id i : participants_)
      for (graph::node_id j : participants_) {
        round_batch& b = at(i, j);
        if (b.payload.empty()) continue;
        channels.unicast(i, j, tag, std::move(b.payload), b.bits);
        b.payload.clear();
        b.bits = 0;
      }
  }

 private:
  int universe_;
  const std::vector<graph::node_id>& participants_;
  sim::pooled_vector<round_batch> batches_;
};

}  // namespace nab::bb
