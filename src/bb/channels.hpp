#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// Flat offset-indexed route storage: every path of every ordered pair lives
/// in one contiguous node_id pool, with two cumulative offset arrays on top
/// (per-path end offsets into the pool; per-pair end indices into the path
/// list). end_round's per-link charging then walks contiguous memory instead
/// of chasing a vector<vector<vector>> pointer soup, and a sweep-wide shared
/// table is three allocations instead of ~n^2 * (2f+2).
///
/// Pairs are stored row-major (from * n + to), so all routes out of one
/// source form a contiguous block — which is also the unit of parallel
/// construction (build_routes_for_source / assemble).
class route_table {
 public:
  struct build_stats {
    std::uint64_t pairs = 0;               ///< ordered pairs routed (incl. direct)
    std::uint64_t flow_augmentations = 0;  ///< augmenting paths for emulated pairs
    bool operator==(const build_stats&) const = default;
  };

  /// One path: a contiguous node span (source first, destination last).
  class path_view {
   public:
    path_view(const graph::node_id* data, std::size_t size) : data_(data), size_(size) {}
    std::size_t size() const { return size_; }
    graph::node_id operator[](std::size_t i) const { return data_[i]; }
    graph::node_id front() const { return data_[0]; }
    graph::node_id back() const { return data_[size_ - 1]; }
    const graph::node_id* begin() const { return data_; }
    const graph::node_id* end() const { return data_ + size_; }
    friend bool operator==(const path_view& a, const std::vector<graph::node_id>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    const graph::node_id* data_;
    std::size_t size_;
  };

  /// The routes of one ordered pair: one single-link route or 2f+1
  /// node-disjoint paths (empty for unrouted pairs).
  class route_view {
   public:
    route_view(const route_table* t, std::uint32_t first, std::uint32_t last)
        : t_(t), first_(first), last_(last) {}
    std::size_t size() const { return last_ - first_; }
    bool empty() const { return last_ == first_; }
    path_view operator[](std::size_t i) const { return t_->path(first_ + static_cast<std::uint32_t>(i)); }

    struct iterator {
      const route_table* t;
      std::uint32_t p;
      path_view operator*() const { return t->path(p); }
      iterator& operator++() { ++p; return *this; }
      bool operator!=(const iterator& o) const { return p != o.p; }
    };
    iterator begin() const { return {t_, first_}; }
    iterator end() const { return {t_, last_}; }

   private:
    const route_table* t_;
    std::uint32_t first_, last_;
  };

  route_table() = default;

  /// Routes of the ordered pair (from, to).
  route_view at(graph::node_id from, graph::node_id to) const {
    const std::size_t idx = static_cast<std::size_t>(from) * n_ + to;
    return {this, idx == 0 ? 0 : pair_end_[idx - 1], pair_end_[idx]};
  }

  int universe() const { return n_; }
  const build_stats& stats() const { return stats_; }

  /// Expands one pair back into the nested representation (tests compare
  /// against the per-pair reference builder).
  std::vector<std::vector<graph::node_id>> decode(graph::node_id from,
                                                  graph::node_id to) const;

  bool operator==(const route_table&) const = default;

 private:
  friend class channel_plan;

  path_view path(std::uint32_t p) const {
    const std::uint32_t b = p == 0 ? 0 : path_end_[p - 1];
    return {pool_.data() + b, path_end_[p] - b};
  }

  int n_ = 0;
  std::vector<graph::node_id> pool_;       ///< all path nodes, concatenated
  std::vector<std::uint32_t> path_end_;    ///< cumulative end offset per path
  std::vector<std::uint32_t> pair_end_;    ///< cumulative end path index per pair
  build_stats stats_;
};

/// Hook allowing corrupt *relays* to tamper with copies forwarded along
/// emulated multi-hop paths. The default (returning nullopt) relays
/// honestly; returning a payload substitutes it. Majority voting over 2f+1
/// node-disjoint paths makes any tampering ineffective when the sender is
/// honest — tests exercise exactly that.
class relay_adversary {
 public:
  virtual ~relay_adversary() = default;

  /// `path` is the full node sequence; called only when some interior relay
  /// is corrupt.
  virtual std::optional<sim::payload> tamper(
      const std::vector<graph::node_id>& path, const sim::message& m) {
    (void)path;
    (void)m;
    return std::nullopt;
  }
};

/// Reliable pairwise channels over an arbitrary (>= 2f+1)-connected network.
///
/// The paper's step 2.2 and Phase 3 run classical BB protocols that assume a
/// complete graph; on incomplete topologies it emulates each logical channel
/// by sending the same data along 2f+1 node-disjoint paths and taking the
/// majority at the receiver (Appendix D). This class precomputes those
/// routes once per topology and provides round-structured logical unicasts
/// with exact link-level bit accounting.
///
/// Accounting: a relay forwards identical content once. A round's messages
/// from senders with an emulated route are grouped by (from, tag, bits,
/// payload), and a directed link carries one copy per group that routes
/// over it, however many of the group's paths (to however many receivers)
/// cross it; a sender whose routes are all direct links sends each message
/// on its own link. Routes and the per-path majority are unchanged; only
/// identical copies are compressed.
/// The exception is tamperable content: with a relay adversary attached, a
/// hop sent by or after a corrupt interior relay is charged per path, since
/// that relay may forward different content on each. Under loss, each
/// merged link transmission runs one ARQ loop, and a path arrives iff every
/// one of its hops got through. Multi-hop forwarding happens within one
/// synchronous step (cut-through); see docs/PAPER_MAP.md, "Realization
/// choices".
class channel_plan {
 public:
  /// The flat pooled route storage (see route_table above).
  using route_table = bb::route_table;

  /// Builds routes for every ordered pair of active nodes. Throws nab::error
  /// if some pair admits neither a direct link nor 2f+1 disjoint paths.
  channel_plan(const graph::digraph& g, int f);

  /// Uses a precomputed (immutable, shareable) route table — routes are a
  /// pure function of (g, f), so core::omega_cache memoizes them across the
  /// sessions of a sweep. Precondition: `routes` was built by build_routes
  /// for exactly this (g, f).
  channel_plan(const graph::digraph& g, int f,
               std::shared_ptr<const route_table> routes);

  /// The route-construction half of the constructor, exposed for caching:
  /// one warm-started disjoint-path finder per source, assembled row by row.
  static route_table build_routes(const graph::digraph& g, int f);

  /// One source's row of the table, built on its own warm-started residual
  /// network — the unit of deterministic parallel construction. `error` is
  /// set (not thrown) when a pair lacks 2f+1 disjoint paths, so parallel
  /// builders can surface the smallest-source failure deterministically.
  struct source_block {
    std::vector<graph::node_id> pool;
    std::vector<std::uint32_t> path_end;  ///< cumulative, relative to pool
    std::vector<std::uint32_t> path_count;  ///< paths per destination (size n)
    std::uint64_t pairs = 0;
    std::uint64_t flow_augmentations = 0;
    std::string error;  ///< empty on success
  };
  static source_block build_routes_for_source(const graph::digraph& g, int f,
                                              graph::node_id u);

  /// Concatenates per-source blocks (ascending source order) into one flat
  /// table; throws the smallest-source block error if any. `blocks` must
  /// have exactly g.universe() entries.
  static route_table assemble(const graph::digraph& g,
                              std::vector<source_block> blocks);

  /// Queues a logical unicast for the current round.
  void unicast(graph::node_id from, graph::node_id to, std::uint64_t tag,
               sim::payload payload, std::uint64_t bits);

  virtual ~channel_plan() = default;
  channel_plan(const channel_plan&) = default;
  channel_plan& operator=(const channel_plan&) = default;
  channel_plan(channel_plan&&) = default;
  channel_plan& operator=(channel_plan&&) = default;

  /// Ends the round: charges `net` (merged as above), applies relay
  /// tampering on compromised paths, majority-resolves copies, and fills the
  /// channel inboxes in queue order. Returns the step duration. Virtual only
  /// so tests can run the protocols over a per-path reference channel.
  virtual double end_round(sim::network& net, const sim::fault_set& faults,
                           relay_adversary* adv = nullptr);

  /// Logical messages delivered to v in the last completed round.
  const sim::message_list& inbox(graph::node_id v) const;

  /// Releases all per-round storage (queued messages and inbox capacity).
  /// The plan itself persists across NAB instances while payloads live in a
  /// per-run arena, so the session calls this before every arena reset.
  void reclaim_round_storage();

  /// The routes used for the ordered pair (from, to): one single-link route
  /// or 2f+1 node-disjoint paths.
  route_table::route_view routes(graph::node_id from, graph::node_id to) const {
    return routes_->at(from, to);
  }

  int fault_budget() const { return f_; }

  /// The topology the plan was built for (participants = its active nodes).
  const graph::digraph& topology() const { return topo_; }

 protected:
  sim::message_list queued_;
  std::vector<sim::message_list> inboxes_;

 private:
  /// Charges message `idx` of queued_ over its routes, as a member of the
  /// merge group whose stamp is `group`, and records each path's fate in
  /// path_state_.
  void transmit(std::size_t idx, std::uint64_t group, sim::network& net,
                const sim::fault_set& faults, bool tamperable);

  /// Delivers message `idx` into its receiver's inbox by the fate of its
  /// paths: nothing when all were lost, the payload itself when no
  /// surviving copy crossed a tampering relay, else the majority.
  void deliver(std::size_t idx, relay_adversary* adv);

  graph::digraph topo_;
  int f_;
  std::shared_ptr<const route_table> routes_;  // immutable, possibly shared

  // end_round scratch, reused across rounds (no heap allocation once warm).
  struct link_slot {
    std::uint64_t stamp = 0;  ///< last merge group that used the link
    bool ok = false;          ///< whether that group's transmission got through
  };
  /// A path's fate in the round: lost in transit, delivered verbatim, or
  /// delivered through a corrupt relay while a relay adversary is attached.
  enum class path_fate : char { lost, intact, tamperable };
  std::vector<link_slot> links_;           ///< per directed link, u * n + v
  std::uint64_t stamp_ = 0;                ///< last group stamp handed out
  std::vector<char> emulating_;            ///< per source: some route is multi-hop
  std::vector<std::uint32_t> merge_order_; ///< emulating senders' messages, queue order
  /// Runs of equal consecutive copies: [begin, end) positions in merge_order_.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs_;
  std::vector<std::uint32_t> first_path_;  ///< per message: its paths' span in path_state_
  std::vector<path_fate> path_state_;      ///< per path, by first_path_
};

}  // namespace nab::bb
