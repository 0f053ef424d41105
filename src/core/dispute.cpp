#include "core/dispute.hpp"

#include <algorithm>
#include <set>

#include "bb/claim_bcast.hpp"
#include "core/phase1.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::core {
namespace {

/// Can `pairs` be covered by at most `budget` nodes drawn from `candidates`,
/// never using `banned`? Branch on an uncovered pair's two endpoints.
bool cover_exists(const std::vector<std::pair<graph::node_id, graph::node_id>>& pairs,
                  std::set<graph::node_id>& chosen, int budget, graph::node_id banned) {
  // Find the first uncovered pair.
  const auto uncovered = std::find_if(pairs.begin(), pairs.end(), [&](const auto& p) {
    return chosen.count(p.first) == 0 && chosen.count(p.second) == 0;
  });
  if (uncovered == pairs.end()) return true;
  if (budget == 0) return false;
  for (graph::node_id pick : {uncovered->first, uncovered->second}) {
    if (pick == banned) continue;
    chosen.insert(pick);
    if (cover_exists(pairs, chosen, budget - 1, banned)) {
      chosen.erase(pick);
      return true;
    }
    chosen.erase(pick);
  }
  return false;
}

chunk claimed_chunk(const node_claims& c, int tree, graph::node_id from,
                    graph::node_id to, std::size_t size) {
  const auto it = c.p1_received.find({tree, from, to});
  chunk out = it == c.p1_received.end() ? chunk{} : it->second;
  out.resize(size, 0);
  return out;
}

}  // namespace

std::vector<graph::node_id> explaining_intersection(
    const std::set<std::pair<graph::node_id, graph::node_id>>& pair_set, int f) {
  const std::vector<std::pair<graph::node_id, graph::node_id>> pairs(pair_set.begin(),
                                                                     pair_set.end());
  std::set<graph::node_id> chosen;
  if (!cover_exists(pairs, chosen, f, /*banned=*/-1))
    throw error("explaining_intersection: disputes cannot be covered by f nodes");

  std::set<graph::node_id> involved;
  for (const auto& [a, b] : pairs) {
    involved.insert(a);
    involved.insert(b);
  }
  std::vector<graph::node_id> out;
  for (graph::node_id x : involved) {
    std::set<graph::node_id> probe;
    if (!cover_exists(pairs, probe, f, /*banned=*/x)) out.push_back(x);
  }
  return out;
}

dispute_outcome run_dispute_control(sim::network& net, bb::channel_plan& channels,
                                    const graph::digraph& gk,
                                    const sim::fault_set& faults, int f_bb, int f,
                                    const instance_context& ctx,
                                    dispute_record& record, nab_adversary* adv,
                                    bb::claim_backend backend,
                                    std::uint64_t digest_seed) {
  NAB_ASSERT(ctx.coding != nullptr, "instance context needs a coding scheme");
  const std::vector<graph::node_id> active = gk.active_nodes();
  const int universe = gk.universe();
  const double t0 = net.elapsed();

  dispute_outcome outcome;

  // ---- DC1: claim broadcast of every node's claims + the source's input,
  // ---- through the pluggable backend (bb/claim_bcast.hpp). ----
  std::vector<bb::claim_instance> instances;
  std::vector<graph::node_id> claimant;  // instance index -> node
  for (graph::node_id v : active) {
    node_claims claims = ctx.truth[static_cast<std::size_t>(v)];
    if (faults.is_corrupt(v) && adv != nullptr) {
      sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
      claims = adv->phase3_claims(v, claims);
    }
    bb::claim_instance inst;
    inst.source = v;
    inst.input = claims.pack();
    inst.value_bits = claims.bits();
    instances.push_back(std::move(inst));
    claimant.push_back(v);
  }
  {
    std::vector<word> source_input = ctx.input;
    if (faults.is_corrupt(ctx.source) && adv != nullptr) {
      sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
      source_input = adv->phase3_source_input(source_input);
    }
    bb::claim_instance inst;
    inst.source = ctx.source;
    value_vector packer = value_vector::reshape(
        source_input.empty() ? std::vector<word>{0} : source_input, 1);
    inst.input = packer.pack();
    inst.value_bits = 16 * std::max<std::uint64_t>(source_input.size(), 1);
    instances.push_back(std::move(inst));
  }

  const std::uint64_t wire_before = net.total_bits();
  bb::claim_outcome bb_out;
  {
    obs::scoped_span span("dc1_claims", net.elapsed());
    bb_out = bb::broadcast_claims(
        backend, channels, net, faults, instances, f_bb,
        adv != nullptr ? adv->claim_bcast() : nullptr,
        adv != nullptr ? adv->relay() : nullptr, digest_seed);
    span.end_tau(net.elapsed());
  }
  outcome.claim_bits = net.total_bits() - wire_before;
  outcome.claim_fallbacks = bb_out.fallback_retrievals;

  // Read agreed values off the first honest node (all honest nodes agree;
  // session-level tests assert that independently).
  graph::node_id reader = -1;
  for (graph::node_id v : active)
    if (faults.is_honest(v)) {
      reader = v;
      break;
    }
  NAB_ASSERT(reader >= 0, "no honest node left in G_k");

  // The agreed instance outcome (last instance).
  {
    const bb::value& agreed = bb_out.agreed.back()[static_cast<std::size_t>(reader)];
    const std::size_t want = std::max<std::size_t>(ctx.input.size(), 1);
    outcome.agreed_value =
        value_vector::unpack(1, static_cast<int>(want), agreed).words();
    outcome.agreed_value.resize(ctx.input.size(), 0);
  }

  // Agreed claims; parse failures convict the claimant immediately (a
  // malformed claim violates the prescribed format).
  std::vector<node_claims> agreed(static_cast<std::size_t>(universe));
  std::set<graph::node_id> convicted_now;
  for (std::size_t q = 0; q < claimant.size(); ++q) {
    const bb::value& blob = bb_out.agreed[q][static_cast<std::size_t>(reader)];
    if (!node_claims::unpack(blob, agreed[static_cast<std::size_t>(claimant[q])]))
      convicted_now.insert(claimant[q]);
  }

  // ---- DC2: cross-check sender vs receiver claims. ----
  auto note_dispute = [&](graph::node_id a, graph::node_id b) {
    if (a == b) return;
    if (!record.in_dispute(a, b)) {
      record.add_dispute(a, b);
      outcome.new_disputes.push_back({std::min(a, b), std::max(a, b)});
    }
  };
  const std::size_t chunk_size =
      split_into_chunks(ctx.input, static_cast<int>(ctx.trees.size()))[0].size();
  {
    obs::scoped_span span("dc2_crosscheck", net.elapsed());
    for (std::size_t t = 0; t < ctx.trees.size(); ++t) {
      for (const graph::edge& e : ctx.trees[t].edges) {
        const auto& sent = agreed[static_cast<std::size_t>(e.from)].p1_sent;
        const auto& rcvd = agreed[static_cast<std::size_t>(e.to)].p1_received;
        const auto key = std::make_tuple(static_cast<int>(t), e.from, e.to);
        const auto si = sent.find(key);
        const auto ri = rcvd.find(key);
        // Erasure discrimination: on lossy links a missing receipt claim is
        // what honest ARQ exhaustion looks like — not evidence. Only present
        // -but-mismatching content (or a receipt the sender disowns) stays a
        // tamper dispute.
        if (ctx.lossy_links && ri == rcvd.end()) continue;
        chunk s = si == sent.end() ? chunk{} : si->second;
        chunk r = ri == rcvd.end() ? chunk{} : ri->second;
        s.resize(chunk_size, 0);
        r.resize(chunk_size, 0);
        if (s != r) note_dispute(e.from, e.to);
      }
    }
    for (const graph::edge& e : gk.edges()) {
      const auto& sent = agreed[static_cast<std::size_t>(e.from)].p2_sent;
      const auto& rcvd = agreed[static_cast<std::size_t>(e.to)].p2_received;
      const auto key = std::make_pair(e.from, e.to);
      const auto si = sent.find(key);
      const auto ri = rcvd.find(key);
      // Same erasure rule as the tree edges: a receiver with no receipt on a
      // lossy link is consistent with honest budget exhaustion. A receiver
      // *with* a receipt the sender disowns, or mismatching content, is not.
      if (ctx.lossy_links && ri == rcvd.end()) continue;
      const bool both_present = si != sent.end() && ri != rcvd.end();
      if (!both_present || !(si->second == ri->second)) note_dispute(e.from, e.to);
    }
    span.end_tau(net.elapsed());
  }

  // ---- DC3: replay prescribed behavior from claimed receipts. ----
  obs::scoped_span dc3_span("dc3_replay", net.elapsed());
  const auto gamma = static_cast<int>(ctx.trees.size());
  const std::vector<chunk> agreed_chunks =
      split_into_chunks(outcome.agreed_value, gamma);
  for (graph::node_id v : active) {
    if (convicted_now.count(v)) continue;
    const node_claims& c = agreed[static_cast<std::size_t>(v)];
    bool faulty = false;

    // Phase-1 prescription: forward on each tree exactly what was received
    // from the tree parent (the agreed input chunk, for the source).
    for (std::size_t t = 0; t < ctx.trees.size() && !faulty; ++t) {
      const auto parents = ctx.trees[t].parents(universe);
      const graph::node_id parent = parents[static_cast<std::size_t>(v)];
      chunk expected;
      if (v == ctx.source) {
        expected = agreed_chunks[t];
      } else if (parent >= 0) {
        expected = claimed_chunk(c, static_cast<int>(t), parent, v, chunk_size);
      } else {
        continue;  // v not reached by this tree (cannot happen for spanning trees)
      }
      for (const graph::edge& e : ctx.trees[t].edges) {
        if (e.from != v) continue;
        const auto key = std::make_tuple(static_cast<int>(t), v, e.to);
        const auto it = c.p1_sent.find(key);
        chunk s = it == c.p1_sent.end() ? chunk{} : it->second;
        s.resize(chunk_size, 0);
        if (s != expected) {
          faulty = true;
          break;
        }
      }
    }

    // Phase-2 prescription: X_v assembled from claimed receipts, coded
    // symbols must equal X_v * C_e on each outgoing edge, and the announced
    // flag must match the recomputed checks.
    if (!faulty) {
      std::vector<chunk> got(ctx.trees.size());
      for (std::size_t t = 0; t < ctx.trees.size(); ++t) {
        const auto parents = ctx.trees[t].parents(universe);
        const graph::node_id parent = parents[static_cast<std::size_t>(v)];
        got[t] = v == ctx.source
                     ? agreed_chunks[t]
                     : claimed_chunk(c, static_cast<int>(t), parent, v, chunk_size);
      }
      const value_vector xv =
          value_vector::reshape(assemble_chunks(got, ctx.input.size()), ctx.rho);
      for (const graph::edge& e : gk.edges()) {
        if (e.from != v) continue;
        const auto it = c.p2_sent.find({v, e.to});
        if (it == c.p2_sent.end() || !(it->second == ctx.coding->encode(xv, v, e.to))) {
          faulty = true;
          break;
        }
      }
      if (!faulty) {
        bool recomputed_flag = false;
        for (const graph::edge& e : gk.edges()) {
          if (e.to != v) continue;
          const auto it = c.p2_received.find({e.from, v});
          if (it == c.p2_received.end()) {
            // Lossy links: the live equality check only verifies receipts
            // that arrived, so an erased edge contributes nothing to the
            // honest flag — the replay must skip it the same way.
            if (ctx.lossy_links) continue;
            recomputed_flag = true;
            break;
          }
          if (!ctx.coding->check(xv, e.from, v, it->second)) {
            recomputed_flag = true;
            break;
          }
        }
        if (recomputed_flag != ctx.agreed_flags[static_cast<std::size_t>(v)])
          faulty = true;
      }
    }

    if (faulty) convicted_now.insert(v);
  }

  // Convicted nodes are deemed in dispute with all their neighbors.
  for (graph::node_id v : convicted_now) {
    for (graph::node_id u : gk.out_neighbors(v)) note_dispute(v, u);
    for (graph::node_id u : gk.in_neighbors(v)) note_dispute(v, u);
  }
  dc3_span.close(net.elapsed());

  // ---- DC4: intersection of all explaining sets. ----
  {
    obs::scoped_span span("dc4_intersection", net.elapsed());
    for (graph::node_id v : explaining_intersection(record.pairs(), f))
      convicted_now.insert(v);

    for (graph::node_id v : convicted_now) {
      if (!record.is_convicted(v)) {
        record.convict(v);
        outcome.newly_convicted.push_back(v);
      }
    }
    span.end_tau(net.elapsed());
  }

  outcome.time = net.elapsed() - t0;
  return outcome;
}

}  // namespace nab::core
