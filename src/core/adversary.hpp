#pragma once

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "bb/claim_bcast.hpp"
#include "bb/phase_king.hpp"
#include "core/coding.hpp"
#include "core/value.hpp"
#include "graph/digraph.hpp"

namespace nab::core {

/// A share of the broadcast value carried on one spanning tree in Phase 1.
/// Arena-backed: chunks churn as transcripts in every phase, so they draw
/// from the ambient run arena (sim/run_arena.hpp) when one is installed.
using chunk = sim::pooled_vector<word>;

/// A transcript map whose nodes live in the ambient run arena — these are
/// exactly the per-instance claim maps the dispute machinery churns through.
template <typename K, typename V>
using claim_map = std::map<K, V, std::less<K>, sim::arena_alloc<std::pair<const K, V>>>;

/// Ground-truth record of everything one node sent and received during
/// Phases 1 and 2 of a NAB instance. Dispute control (Phase 3) has nodes
/// *claim* these; honest nodes claim the truth, corrupt nodes claim whatever
/// the adversary likes.
struct node_claims {
  /// (tree, from, to) -> chunk for tree edges where this node is the sender
  /// / receiver respectively.
  claim_map<std::tuple<int, graph::node_id, graph::node_id>, chunk> p1_sent;
  claim_map<std::tuple<int, graph::node_id, graph::node_id>, chunk> p1_received;
  /// (from, to) -> coded symbols for Equality Check edges.
  claim_map<std::pair<graph::node_id, graph::node_id>, coded_symbols> p2_sent;
  claim_map<std::pair<graph::node_id, graph::node_id>, coded_symbols> p2_received;

  bool operator==(const node_claims&) const = default;

  /// Wire size, used to account Phase 3's O(L * n^beta) cost.
  std::uint64_t bits() const;

  /// Deterministic serialization for classical-BB dissemination.
  sim::payload pack() const;
  /// Returns false when the blob is malformed (which convicts the claimant).
  static bool unpack(const sim::payload& words, node_claims& out);
};

/// Behavior of the corrupt nodes across all phases of NAB. The default
/// implementation behaves honestly everywhere, so strategies override only
/// the hooks they attack through. Each hook receives what an honest node
/// would have done.
///
/// The adversary is full-information (the paper's model): strategies may
/// retain arbitrary state and inspect anything passed to them. Every hook is
/// invoked with run-arena pooling suspended, so retained state lives on the
/// plain heap and survives the per-instance arena reset (see
/// sim/run_arena.hpp) without strategies having to know arenas exist.
class nab_adversary {
 public:
  virtual ~nab_adversary() = default;

  /// Called by the session at the start of every instance; lets stateful
  /// strategies (e.g. dispute farmers) reset or adapt to the shrinking G_k.
  virtual void on_instance_begin(int instance_index, const graph::digraph& gk) {
    (void)instance_index;
    (void)gk;
  }

  /// Chunk a corrupt *source* sends to child `to` on `tree` in Phase 1.
  virtual chunk phase1_source_chunk(int tree, graph::node_id to, const chunk& honest) {
    (void)tree;
    (void)to;
    return honest;
  }

  /// Chunk a corrupt relay forwards to `to` on `tree` (honest = received).
  virtual chunk phase1_forward_chunk(int tree, graph::node_id from, graph::node_id to,
                                     const chunk& honest) {
    (void)tree;
    (void)from;
    (void)to;
    return honest;
  }

  /// Coded symbols a corrupt node sends on edge (u, v) during Equality
  /// Check (honest = X_u * C_e).
  virtual coded_symbols phase2_coded(graph::node_id u, graph::node_id v,
                                     const coded_symbols& honest) {
    (void)u;
    (void)v;
    return honest;
  }

  /// Flag a corrupt node feeds into the step-2.2 broadcast.
  virtual bool phase2_flag(graph::node_id v, bool honest) {
    (void)v;
    return honest;
  }

  /// Claims a corrupt node submits during dispute control.
  virtual node_claims phase3_claims(graph::node_id v, const node_claims& honest) {
    (void)v;
    return honest;
  }

  /// Input value a corrupt *source* submits to the DC1 broadcast (honest =
  /// its real input words).
  virtual std::vector<word> phase3_source_input(const std::vector<word>& honest) {
    return honest;
  }

  /// Optional adversary inside the step-2.2 flag broadcast (the batched
  /// phase-king engine). nullptr = corrupt nodes behave honestly *inside* BB
  /// (they can still lie via phase2_flag above).
  virtual bb::pk_adversary* pk() { return nullptr; }

  /// Optional adversary for the collapsed claim-broadcast backend (digest
  /// equivocation, echo suppression, forged retrievals). nullptr = corrupt
  /// nodes behave honestly *inside* the backend (they still lie via
  /// phase3_claims above) — the regime in which every backend provably
  /// agrees on exactly the submitted claims, which is what the
  /// backend-equivalence tests pin down.
  virtual bb::claim_adversary* claim_bcast() { return nullptr; }

  /// Optional relay-tampering adversary for emulated multi-hop channels:
  /// corrupt interior relays may replace forwarded copies. Majority voting
  /// over 2f+1 node-disjoint paths makes this provably ineffective — the
  /// hook exists so tests can demonstrate exactly that.
  virtual bb::relay_adversary* relay() { return nullptr; }
};

}  // namespace nab::core
