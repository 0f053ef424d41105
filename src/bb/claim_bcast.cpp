#include "bb/claim_bcast.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "bb/round_batch.hpp"
#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"
#include "sim/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nab::bb {
namespace {

// Traces and timelines print "claim" instead of the raw tag constant.
[[maybe_unused]] const bool claim_tag_registered =
    (sim::register_tag_name(claim_traffic_tag, "claim"), true);

// ---------------------------------------------------------------------------
// Digest: polynomial evaluation over GF(2^16) at four seeded points.
// ---------------------------------------------------------------------------

/// Per-point multiplication tables: digesting is one table hit + one xor per
/// limb per point, so verifying an n=64 transcript batch stays cheap enough
/// to run once per (claimant, receiver) pair. ~512 KiB per point set.
struct digest_tables {
  std::array<std::uint16_t, 4> points;
  std::array<std::array<std::uint16_t, 65536>, 4> mul;

  explicit digest_tables(std::uint64_t seed) {
    // Four distinct nonzero evaluation points drawn from the seed (the
    // session feeds its per-run coding_seed): collision-finding against
    // them is the same seeded-randomness bet as against the Theorem-1
    // coding matrices, instead of closed-form linear algebra over points an
    // adversary could read off the source.
    rng rand(seed ^ 0xd16e57ULL);
    for (std::size_t k = 0; k < points.size(); ++k) {
      for (;;) {
        const auto candidate =
            static_cast<std::uint16_t>(rand.below(65535) + 1);  // nonzero
        bool fresh = true;
        for (std::size_t j = 0; j < k; ++j) fresh = fresh && points[j] != candidate;
        if (fresh) {
          points[k] = candidate;
          break;
        }
      }
      for (unsigned a = 0; a < 65536; ++a)
        mul[k][a] = gf::gf2_16::mul(static_cast<std::uint16_t>(a), points[k]);
    }
  }
};

/// One-entry thread-local cache: a session digests under a single seed for
/// its whole lifetime, so the tables are rebuilt only when a shard moves to
/// the next run (4 * 65536 field mults, ~1 ms) — and never shared across
/// threads.
const digest_tables& digests_for(std::uint64_t seed) {
  thread_local std::unique_ptr<digest_tables> cached;
  thread_local std::uint64_t cached_seed = 0;
  if (cached == nullptr || cached_seed != seed) {
    cached = std::make_unique<digest_tables>(seed);
    cached_seed = seed;
  }
  return *cached;
}

}  // namespace

claim_digest claim_digest_of(const value& payload, std::uint64_t seed) {
  const digest_tables& t = digests_for(seed);
  // 4 limbs x 4 points per absorbed word (plus the length word), counted in
  // bulk so the ambient check stays out of the Horner loop.
  obs::count(obs::counter::gf_mul_ops, 16 * (payload.size() + 1));
  // Horner per point over the limb stream [len limbs..., payload limbs...];
  // accumulators start at 1 so leading zero limbs still shift the state.
  std::array<std::uint16_t, 4> acc = {1, 1, 1, 1};
  const auto absorb = [&](std::uint64_t word) {
    for (int limb = 0; limb < 4; ++limb) {
      const auto w = static_cast<std::uint16_t>(word >> (16 * limb));
      for (std::size_t k = 0; k < 4; ++k)
        acc[k] = static_cast<std::uint16_t>(t.mul[k][acc[k]] ^ w);
    }
  };
  absorb(static_cast<std::uint64_t>(payload.size()));
  for (std::uint64_t word : payload) absorb(word);
  claim_digest d;
  d.words = acc;
  return d;
}

std::vector<claim_digest> claim_digests_of(const std::vector<const value*>& payloads,
                                           std::uint64_t seed) {
  std::vector<claim_digest> out(payloads.size());
  // Same-length payloads advance in lockstep: per absorbed limb, each point's
  // accumulator row is one gf2_16::scale pass (multiply the whole row by the
  // evaluation point) followed by a limb xor. A group of one keeps the
  // scalar table walk — the row pass only pays off with real width.
  std::vector<std::size_t> order(payloads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return payloads[a]->size() < payloads[b]->size();
  });
  const digest_tables& t = digests_for(seed);
  std::array<std::vector<std::uint16_t>, 4> acc;
  std::vector<std::uint16_t> limbs;
  std::size_t lo = 0;
  while (lo < order.size()) {
    const std::size_t m = payloads[order[lo]]->size();
    std::size_t hi = lo + 1;
    while (hi < order.size() && payloads[order[hi]]->size() == m) ++hi;
    const std::size_t rows = hi - lo;
    if (rows == 1) {
      out[order[lo]] = claim_digest_of(*payloads[order[lo]], seed);
      lo = hi;
      continue;
    }
    for (auto& row : acc) row.assign(rows, 1);
    limbs.resize(rows);
    for (std::size_t j = 0; j <= m; ++j) {
      for (int limb = 0; limb < 4; ++limb) {
        for (std::size_t i = 0; i < rows; ++i) {
          const value& p = *payloads[order[lo + i]];
          const std::uint64_t word =
              j == 0 ? static_cast<std::uint64_t>(m) : p[j - 1];
          limbs[i] = static_cast<std::uint16_t>(word >> (16 * limb));
        }
        for (std::size_t k = 0; k < 4; ++k) {
          gf::gf2_16::scale(acc[k].data(), t.points[k], rows);
          for (std::size_t i = 0; i < rows; ++i)
            acc[k][i] = static_cast<std::uint16_t>(acc[k][i] ^ limbs[i]);
        }
      }
    }
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t k = 0; k < 4; ++k) out[order[lo + i]].words[k] = acc[k][i];
    lo = hi;
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Wire plumbing: shared round batches (bb/round_batch.hpp), defensive
// parsing. Every claim-backend unicast is tagged claim_traffic_tag.
// ---------------------------------------------------------------------------

// Item encodings (64-bit transport words):
//   payload item: [q, len, words...]          (dissemination, responses)
//   tagged item:  [q, digest, len, words...]  (collapsed propose)
//   digest item:  [q, digest]                 (echo, ready)
//   index item:   [q]                         (retrieval requests)
// Parsers are defensive: a tampered batch yields as many well-formed prefix
// items as survive.

void append_payload_item(sim::payload& out, std::size_t q, const value& v) {
  out.push_back(q);
  out.push_back(v.size());
  out.insert(out.end(), v.begin(), v.end());
}

bool next_payload_item(const sim::payload& w, std::size_t& pos, std::size_t& q,
                       value& v) {
  if (pos >= w.size() || w.size() - pos < 2) {
    pos = w.size();
    return false;
  }
  q = static_cast<std::size_t>(w[pos]);
  const std::uint64_t len = w[pos + 1];
  if (len > w.size() - pos - 2) {
    pos = w.size();
    return false;
  }
  v.assign(w.begin() + static_cast<std::ptrdiff_t>(pos + 2),
           w.begin() + static_cast<std::ptrdiff_t>(pos + 2 + len));
  pos += 2 + static_cast<std::size_t>(len);
  return true;
}

void append_propose_item(sim::payload& out, std::size_t q, std::uint64_t digest,
                         const value& v) {
  out.push_back(q);
  out.push_back(digest);
  out.push_back(v.size());
  out.insert(out.end(), v.begin(), v.end());
}

bool next_propose_item(const sim::payload& w, std::size_t& pos, std::size_t& q,
                       std::uint64_t& digest, value& v) {
  if (pos >= w.size() || w.size() - pos < 3) {
    pos = w.size();
    return false;
  }
  q = static_cast<std::size_t>(w[pos]);
  digest = w[pos + 1];
  const std::uint64_t len = w[pos + 2];
  if (len > w.size() - pos - 3) {
    pos = w.size();
    return false;
  }
  v.assign(w.begin() + static_cast<std::ptrdiff_t>(pos + 3),
           w.begin() + static_cast<std::ptrdiff_t>(pos + 3 + len));
  pos += 3 + static_cast<std::size_t>(len);
  return true;
}

void append_digest_item(sim::payload& out, std::size_t q, std::uint64_t digest) {
  out.push_back(q);
  out.push_back(digest);
}

bool next_digest_item(const sim::payload& w, std::size_t& pos, std::size_t& q,
                      std::uint64_t& digest) {
  if (pos >= w.size() || w.size() - pos < 2) {
    pos = w.size();
    return false;
  }
  q = static_cast<std::size_t>(w[pos]);
  digest = w[pos + 1];
  pos += 2;
  return true;
}

bool next_index_item(const sim::payload& w, std::size_t& pos, std::size_t& q) {
  if (pos >= w.size()) return false;
  q = static_cast<std::size_t>(w[pos]);
  ++pos;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Collapsed-claim Bracha-style backend.
// ---------------------------------------------------------------------------

namespace {

/// Per-(node, instance) protocol state of the collapsed backend.
struct collapsed_slot {
  value direct;                      ///< transcript copy from the claimant
  bool has_direct = false;
  std::uint64_t direct_digest = 0;   ///< digest of `direct` (valid iff has_direct)
  std::optional<std::uint64_t> announced;  ///< digest the claimant announced
  /// Echo senders per digest (sorted): the vote counts for the quorum, and —
  /// because honest nodes echo only while holding a matching transcript —
  /// the requester's address book for the retrieval round.
  std::map<std::uint64_t, std::set<graph::node_id>> echo_from;
  std::map<std::uint64_t, std::set<graph::node_id>> ready_from;
  std::optional<std::uint64_t> ready_sent;
  std::optional<std::uint64_t> pending_ready;
  std::optional<std::uint64_t> accepted;
  bool need_fallback = false;
  bool resolved_by_fallback = false;

  /// True iff the direct copy matches digest d (the "holder" predicate).
  bool holds(std::uint64_t d) const { return has_direct && direct_digest == d; }
};

}  // namespace

claim_outcome broadcast_claims_collapsed(
    channel_plan& channels, sim::network& net, const sim::fault_set& faults,
    const std::vector<claim_instance>& instances, int f, claim_adversary* adv,
    relay_adversary* relay_adv, std::uint64_t digest_seed) {
  const std::vector<graph::node_id> participants =
      channels.topology().active_nodes();
  const auto np = static_cast<int>(participants.size());
  NAB_ASSERT(np > 3 * f, "collapsed claim broadcast requires more than 3f participants");
  const int universe = channels.topology().universe();
  const std::size_t q_count = instances.size();

  claim_outcome out;
  out.agreed.assign(q_count,
                    std::vector<value>(static_cast<std::size_t>(universe)));
  if (q_count == 0) return out;

  // Quorums: an echo quorum > (np + f)/2 admits at most one digest per
  // claimant; accepting needs 2f+1 readys (>= f+1 honest), and f+1 readys
  // amplify — the standard Bracha arithmetic, run to quiescence below.
  const int echo_quorum = (np + f) / 2 + 1;
  const int ready_accept = 2 * f + 1;
  const int ready_amplify = f + 1;

  const double t0 = net.elapsed();
  round_batches batches(universe, participants);
  std::vector<std::vector<collapsed_slot>> st(
      static_cast<std::size_t>(universe), std::vector<collapsed_slot>(q_count));
  const auto slot = [&](graph::node_id v, std::size_t q) -> collapsed_slot& {
    return st[static_cast<std::size_t>(v)][q];
  };

  // ---- Round 1 (PROPOSE): digest + the single direct transcript copy. ----
  obs::scoped_span propose_span("claim_propose", net.elapsed());
  for (std::size_t q = 0; q < q_count; ++q) {
    const claim_instance& inst = instances[q];
    NAB_ASSERT(channels.topology().is_active(inst.source),
               "claimant must participate");
    NAB_ASSERT(inst.value_bits > 0, "claim instance needs a wire size");
    const claim_digest honest_digest = claim_digest_of(inst.input, digest_seed);
    {
      collapsed_slot& self = slot(inst.source, q);
      self.direct = inst.input;
      self.has_direct = true;
      self.direct_digest = honest_digest.packed();
      self.announced = honest_digest.packed();
    }
    const bool may_lie = faults.is_corrupt(inst.source) && adv != nullptr;
    for (graph::node_id r : participants) {
      if (r == inst.source) continue;
      const value* pl = &inst.input;
      std::uint64_t dg = honest_digest.packed();
      value forged;
      if (may_lie) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        forged = adv->propose_payload(inst.source, r, inst.input);
        dg = adv->announce_digest(inst.source, r,
                                  claim_digest_of(forged, digest_seed))
                 .packed();
        pl = &forged;
      }
      round_batch& b = batches.at(inst.source, r);
      append_propose_item(b.payload, q, dg, *pl);
      b.bits += inst.value_bits + claim_digest_bits + 16;
    }
  }
  batches.flush(channels, claim_traffic_tag);
  channels.end_round(net, faults, relay_adv);
  {
    // Absorb every accepted proposal first, then digest the whole round in
    // one batch: each accepted slot is digested exactly once either way, so
    // the batch only widens the rows the gf2_16 kernels see.
    std::vector<collapsed_slot*> filled;
    for (graph::node_id r : participants) {
      for (const sim::message& m : channels.inbox(r)) {
        std::size_t pos = 0, q = 0;
        std::uint64_t dg = 0;
        value v;
        while (next_propose_item(m.payload, pos, q, dg, v)) {
          if (q >= q_count || m.from != instances[q].source) continue;
          collapsed_slot& s = slot(r, q);
          if (s.announced) continue;  // first proposal wins
          s.announced = dg;
          s.direct = std::move(v);
          s.has_direct = true;
          filled.push_back(&s);
        }
      }
    }
    std::vector<const value*> transcripts;
    transcripts.reserve(filled.size());
    for (const collapsed_slot* s : filled) transcripts.push_back(&s->direct);
    const std::vector<claim_digest> digests =
        claim_digests_of(transcripts, digest_seed);
    for (std::size_t i = 0; i < filled.size(); ++i)
      filled[i]->direct_digest = digests[i].packed();
  }
  propose_span.close(net.elapsed());

  // ---- Round 2 (ECHO): a node echoes a digest only while holding a ----
  // ---- matching transcript, so any echo quorum guarantees >= f+1    ----
  // ---- honest holders — what makes the retrieval round total.       ----
  obs::scoped_span echo_span("claim_echo", net.elapsed());
  for (graph::node_id i : participants) {
    const bool may_lie = faults.is_corrupt(i) && adv != nullptr;
    for (graph::node_id j : participants) {
      if (j == i) continue;
      round_batch& b = batches.at(i, j);
      for (std::size_t q = 0; q < q_count; ++q) {
        const collapsed_slot& s = slot(i, q);
        std::optional<claim_digest> echo;
        if (s.announced && s.holds(*s.announced))
          echo = claim_digest::from_packed(*s.announced);
        if (may_lie) {
          sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
          echo = adv->echo_digest(i, j, q, echo);
        }
        if (!echo) continue;
        obs::count(obs::counter::claim_echoes);
        append_digest_item(b.payload, q, echo->packed());
        b.bits += claim_digest_bits + 16;
      }
    }
  }
  batches.flush(channels, claim_traffic_tag);
  channels.end_round(net, faults, relay_adv);
  {
    for (graph::node_id j : participants) {
      // A node's own echo counts toward its quorum (no wire cost).
      for (std::size_t q = 0; q < q_count; ++q) {
        const collapsed_slot& s = slot(j, q);
        if (s.announced && s.holds(*s.announced))
          slot(j, q).echo_from[*s.announced].insert(j);
      }
      for (const sim::message& m : channels.inbox(j)) {
        std::size_t pos = 0, q = 0;
        std::uint64_t dg = 0;
        while (next_digest_item(m.payload, pos, q, dg)) {
          if (q >= q_count) continue;
          slot(j, q).echo_from[dg].insert(m.from);
        }
      }
    }
  }
  echo_span.close(net.elapsed());

  obs::scoped_span ready_span("claim_ready", net.elapsed());
  // Initial readys: digest with an echo quorum (unique per claimant).
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      collapsed_slot& s = slot(v, q);
      for (const auto& [dg, senders] : s.echo_from)
        if (static_cast<int>(senders.size()) >= echo_quorum) {
          s.pending_ready = dg;
          break;
        }
    }

  // ---- READY rounds to quiescence: each round flushes the pending      ----
  // ---- readys, then f+1 observed readys amplify into new pending ones. ----
  // ---- At quiescence acceptance is uniform across honest nodes: any    ----
  // ---- accept implies f+1 honest readys, which every honest node saw   ----
  // ---- and amplified, so all honest readied and all see >= np - f.     ----
  for (int round = 0;; ++round) {
    NAB_ASSERT(round <= np + 2, "collapsed ready loop failed to quiesce");
    bool any_pending = false;
    for (graph::node_id v : participants) {
      const bool may_lie = faults.is_corrupt(v) && adv != nullptr;
      for (std::size_t q = 0; q < q_count; ++q) {
        collapsed_slot& s = slot(v, q);
        if (!s.pending_ready) continue;
        any_pending = true;
        const std::uint64_t dg = *s.pending_ready;
        s.ready_sent = dg;
        s.pending_ready.reset();
        s.ready_from[dg].insert(v);  // own ready counts
        for (graph::node_id j : participants) {
          if (j == v) continue;
          if (may_lie) {
            bool suppress;
            {
              sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
              suppress = adv->suppress_ready(v, j, q);
            }
            if (suppress) continue;
          }
          obs::count(obs::counter::claim_readys);
          round_batch& b = batches.at(v, j);
          append_digest_item(b.payload, q, dg);
          b.bits += claim_digest_bits + 16;
        }
      }
    }
    if (!any_pending) break;
    batches.flush(channels, claim_traffic_tag);
    channels.end_round(net, faults, relay_adv);
    for (graph::node_id j : participants) {
      for (const sim::message& m : channels.inbox(j)) {
        std::size_t pos = 0, q = 0;
        std::uint64_t dg = 0;
        while (next_digest_item(m.payload, pos, q, dg)) {
          if (q >= q_count) continue;
          slot(j, q).ready_from[dg].insert(m.from);
        }
      }
      // Amplification: f+1 readys for a digest pull a not-yet-ready node in.
      for (std::size_t q = 0; q < q_count; ++q) {
        collapsed_slot& s = slot(j, q);
        if (s.ready_sent || s.pending_ready) continue;
        for (const auto& [dg, senders] : s.ready_from)
          if (static_cast<int>(senders.size()) >= ready_amplify) {
            s.pending_ready = dg;
            break;
          }
      }
    }
  }

  // Acceptance + fallback need (a direct copy mismatching the accepted
  // digest — the disputed minority).
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      collapsed_slot& s = slot(v, q);
      for (const auto& [dg, senders] : s.ready_from)
        if (static_cast<int>(senders.size()) >= ready_accept) {
          s.accepted = dg;
          // Margin gauges, honest observers only: how far this accept sat
          // above the quorum rules. Record-minimum over the whole run — the
          // closest the adversary pushed a quorum to its edge.
          if (faults.is_honest(v)) {
            obs::gauge_min(obs::gauge::quorum_slack,
                           static_cast<std::int64_t>(senders.size()) -
                               ready_accept);
            const auto holders = s.echo_from.find(dg);
            std::int64_t honest_holders = 0;
            if (holders != s.echo_from.end())
              for (graph::node_id h : holders->second)
                if (faults.is_honest(h)) ++honest_holders;
            obs::gauge_min(obs::gauge::hold_surplus, honest_holders - (f + 1));
          }
          break;
        }
      s.need_fallback = s.accepted && !s.holds(*s.accepted);
      if (s.need_fallback) {
        obs::count(obs::counter::claim_fallbacks);
        ++out.fallback_retrievals;
      }
    }
  ready_span.close(net.elapsed());

  // ---- Retrieval round pair (REQUEST, RESPOND) — zero traffic and zero ----
  // ---- simulated time when every pair was digest-clean. Requests go to ----
  // ---- at most 2f+1 of the accepted digest's echoers: honest nodes     ----
  // ---- echo only while holding, the requester saw every honest echo    ----
  // ---- (honest echoes broadcast), and any accepted digest has >= f+1   ----
  // ---- honest echoers — so even f corrupt echoers among the targets    ----
  // ---- leave an honest holder that serves the transcript. Per          ----
  // ---- mismatched pair the fallback therefore moves O(f) copies, not   ----
  // ---- O(n).                                                           ----
  obs::scoped_span retrieval_span("claim_retrieval", net.elapsed());
  std::vector<std::vector<std::pair<std::size_t, graph::node_id>>> requests(
      static_cast<std::size_t>(universe));
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      const collapsed_slot& s = slot(v, q);
      if (!s.need_fallback) continue;
      const auto holders = s.echo_from.find(*s.accepted);
      if (holders == s.echo_from.end()) continue;  // nobody to ask
      int asked = 0;
      for (graph::node_id j : holders->second) {  // set: ascending ids
        if (j == v) continue;
        if (asked >= 2 * f + 1) break;
        ++asked;
        round_batch& b = batches.at(v, j);
        b.payload.push_back(q);
        b.bits += 16;
      }
    }
  batches.flush(channels, claim_traffic_tag);
  channels.end_round(net, faults, relay_adv);
  {
    std::vector<bool> seen(q_count, false);
    for (graph::node_id j : participants)
      for (const sim::message& m : channels.inbox(j)) {
        std::fill(seen.begin(), seen.end(), false);
        std::size_t pos = 0, q = 0;
        while (next_index_item(m.payload, pos, q)) {
          if (q >= q_count || seen[q]) continue;
          seen[q] = true;
          requests[static_cast<std::size_t>(j)].emplace_back(q, m.from);
        }
      }
  }
  for (graph::node_id j : participants) {
    const bool may_lie = faults.is_corrupt(j) && adv != nullptr;
    for (const auto& [q, requester] : requests[static_cast<std::size_t>(j)]) {
      const collapsed_slot& s = slot(j, q);
      std::optional<value> response;
      if (s.accepted && s.holds(*s.accepted)) response = s.direct;
      if (may_lie) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        response = adv->serve_retrieval(j, requester, q, response);
      }
      if (!response) continue;
      round_batch& b = batches.at(j, requester);
      append_payload_item(b.payload, q, *response);
      b.bits += instances[q].value_bits + 16;
    }
  }
  batches.flush(channels, claim_traffic_tag);
  channels.end_round(net, faults, relay_adv);
  {
    // Verify per message in one batch. Protocol-following holders answer
    // each index at most once per message (requests are deduped above), so
    // candidates within a message are distinct slots; adversarial payloads
    // that repeat an index are deduped here — first occurrence wins — so the
    // digested set is a deterministic function of the message contents.
    // Batching wider than a message would digest responses the serial walk
    // skips once a slot resolves; per-message batches keep the digested set
    // — and the field-op totals — identical to the one-at-a-time walk on
    // every duplicate-free (i.e. protocol-reachable) message.
    std::vector<collapsed_slot*> candidates;
    std::vector<value> responses;
    std::vector<const value*> views;
    std::vector<bool> msg_seen(q_count, false);
    for (graph::node_id r : participants) {
      for (const sim::message& m : channels.inbox(r)) {
        candidates.clear();
        responses.clear();
        std::fill(msg_seen.begin(), msg_seen.end(), false);
        std::size_t pos = 0, q = 0;
        value v;
        while (next_payload_item(m.payload, pos, q, v)) {
          if (q >= q_count || msg_seen[q]) continue;
          msg_seen[q] = true;
          collapsed_slot& s = slot(r, q);
          if (!s.need_fallback || s.resolved_by_fallback || !s.accepted) continue;
          candidates.push_back(&s);
          responses.push_back(std::move(v));
        }
        views.clear();
        views.reserve(responses.size());
        for (const value& resp : responses) views.push_back(&resp);
        const std::vector<claim_digest> digests =
            claim_digests_of(views, digest_seed);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          collapsed_slot& s = *candidates[i];
          if (s.resolved_by_fallback) continue;
          if (digests[i].packed() != *s.accepted) continue;  // forged
          s.direct = std::move(responses[i]);
          s.has_direct = true;
          s.direct_digest = *s.accepted;
          s.resolved_by_fallback = true;
        }
      }
    }
  }
  retrieval_span.close(net.elapsed());

  // Decide: the validated transcript when the accepted digest is matched,
  // the default (empty) value otherwise. Acceptance is uniform and any
  // accepted digest has >= f+1 honest holders serving retrievals, so every
  // honest node lands on the same payload per claimant.
  for (graph::node_id v : participants)
    for (std::size_t q = 0; q < q_count; ++q) {
      collapsed_slot& s = slot(v, q);
      if (s.accepted && s.holds(*s.accepted))
        out.agreed[q][static_cast<std::size_t>(v)] = std::move(s.direct);
    }

  out.time = net.elapsed() - t0;
  return out;
}

claim_outcome broadcast_claims(claim_backend backend, channel_plan& channels,
                               sim::network& net, const sim::fault_set& faults,
                               const std::vector<claim_instance>& instances, int f,
                               claim_adversary* claim_adv, relay_adversary* relay_adv,
                               std::uint64_t digest_seed) {
  const bool pk = backend == claim_backend::phase_king;
  obs::scoped_span span(pk ? "claim_backend_phase_king" : "claim_backend_collapsed",
                        net.elapsed());
  claim_outcome out =
      pk ? broadcast_claims_phase_king(channels, net, faults, instances, f, relay_adv)
         : broadcast_claims_collapsed(channels, net, faults, instances, f, claim_adv,
                                      relay_adv, digest_seed);
  span.end_tau(net.elapsed());
  return out;
}

}  // namespace nab::bb
