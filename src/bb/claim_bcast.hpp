#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bb/channels.hpp"
#include "bb/phase_king.hpp"
#include "graph/digraph.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace nab::bb {

/// The one Phase-3 claim engine (Appendix B, DC1) is the collapsed-claim
/// broadcast below. `claim_backend` keeps that single value only because
/// perfbench/nab_bench.cpp still assigns `core::session_config::claim_backend`;
/// nothing reads it.
enum class claim_backend { collapsed };

/// Trace tag stamped on every claim-dissemination unicast (and forwarded by
/// the channel emulation onto every link-level charge), so a sim::trace can
/// account DC1 claim bytes — see trace::tag_total.
inline constexpr std::uint64_t claim_traffic_tag = 0xC1A1B;

/// Fixed-size transcript digest: the payload (length-prefixed, split into
/// 16-bit limbs) evaluated as a polynomial over GF(2^16) at four evaluation
/// points derived from a per-run seed. Equal payloads always digest
/// equally; differing payloads of m limbs collide at a given point set with
/// probability ~(m/2^16)^4 — and because the points are drawn per run
/// (the session feeds its coding_seed) while the adversary hooks only ever
/// see digest *values*, constructing a collision is the same
/// seeded-randomness bet as defeating Theorem 1's random coding matrices.
/// A keyless fixed-point map would instead be linear algebra the claimant
/// could solve in closed form. (A deployment would use a cryptographic
/// hash; the simulation keeps the field arithmetic the paper's toolbox
/// already provides.)
struct claim_digest {
  std::array<std::uint16_t, 4> words{};

  bool operator==(const claim_digest&) const = default;

  /// The digest as one 64-bit transport word (wire form).
  std::uint64_t packed() const {
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < words.size(); ++i)
      out |= static_cast<std::uint64_t>(words[i]) << (16 * i);
    return out;
  }
  static claim_digest from_packed(std::uint64_t p) {
    claim_digest d;
    for (std::size_t i = 0; i < d.words.size(); ++i)
      d.words[i] = static_cast<std::uint16_t>(p >> (16 * i));
    return d;
  }
};

/// Wire size of a claim digest in bits.
inline constexpr std::uint64_t claim_digest_bits = 64;

/// Digests a payload (any byte content, including the empty payload) at the
/// evaluation points derived from `seed`. All participants of one broadcast
/// must use the same seed (it is protocol state, like the coding matrices).
claim_digest claim_digest_of(const value& payload, std::uint64_t seed = 0);

/// Batched form: digests every payload (non-null pointers, one shared seed)
/// and returns the digests in input order, in the ambient run arena.
/// Payloads of equal length advance in lockstep — one gf2_16::scale row
/// pass per absorbed limb across the whole group — so a round's worth of
/// transcripts runs through the dispatched SIMD row kernels instead of
/// per-payload table walks. Field-op totals match size() scalar
/// claim_digest_of calls exactly (the work moves from gf_mul_ops to
/// gf_scale_words limb for limb), so gf_ops-keyed run signatures are
/// unchanged.
sim::pooled_vector<claim_digest> claim_digests_of(std::span<const value* const> payloads,
                                                  std::uint64_t seed = 0);

/// One claim to disseminate: `source` wants every participant to decide its
/// `input` transcript. `value_bits` is the wire size charged per transmitted
/// copy of the transcript (required > 0).
struct claim_instance {
  graph::node_id source = 0;
  value input;
  std::uint64_t value_bits = 0;
};

/// Result of one batched claim dissemination.
struct claim_outcome {
  /// agreed[q][v] = payload node v decided for instance q (meaningful for
  /// honest v; the empty payload is the default for claimants nobody could
  /// validate).
  std::vector<std::vector<value>> agreed;
  double time = 0.0;
  /// Number of (claimant, receiver) pairs whose direct transcript copy
  /// mismatched the accepted digest and was served by
  /// the retrieval round instead. Zero whenever every claimant proposed
  /// consistently — the honest steady state.
  int fallback_retrievals = 0;
};

/// Adversary hooks for corrupt participants of the claim broadcast. Every
/// hook receives what an honest node would have sent; the default behaves
/// honestly, so strategies override only their attack surface.
class claim_adversary {
 public:
  virtual ~claim_adversary() = default;

  /// Transcript a corrupt *claimant* proposes to `receiver` (the
  /// equivocation point: different receivers may get different payloads).
  virtual value propose_payload(graph::node_id claimant, graph::node_id receiver,
                                const value& honest) {
    (void)claimant;
    (void)receiver;
    return honest;
  }

  /// Digest a corrupt claimant announces to `receiver` alongside the
  /// proposed payload. `honest` is the true digest of the payload the hook
  /// above returned — announcing anything else poisons the pair into the
  /// retrieval path (which the quorum design makes harmless).
  virtual claim_digest announce_digest(graph::node_id claimant,
                                       graph::node_id receiver,
                                       const claim_digest& honest) {
    (void)claimant;
    (void)receiver;
    return honest;
  }

  /// Echo a corrupt participant forwards to `receiver` for instance `q`;
  /// `honest` is its true holding (nullopt = no matching payload held).
  /// Returning nullopt suppresses the echo.
  virtual std::optional<claim_digest> echo_digest(
      graph::node_id participant, graph::node_id receiver, std::size_t q,
      const std::optional<claim_digest>& honest) {
    (void)participant;
    (void)receiver;
    (void)q;
    return honest;
  }

  /// May a corrupt participant withhold its READY for instance `q` from
  /// `receiver`? (Selective suppression is the classical totality attack;
  /// the ready-amplification rounds defeat it.)
  virtual bool suppress_ready(graph::node_id participant, graph::node_id receiver,
                              std::size_t q) {
    (void)participant;
    (void)receiver;
    (void)q;
    return false;
  }

  /// Response a corrupt participant serves for a retrieval request. `honest`
  /// is nullopt when the node holds no digest-matching copy (honest behavior
  /// is then to stay silent); forged responses are filtered by the
  /// requester's digest check.
  virtual std::optional<value> serve_retrieval(graph::node_id participant,
                                               graph::node_id requester,
                                               std::size_t q,
                                               const std::optional<value>& honest) {
    (void)participant;
    (void)requester;
    (void)q;
    return honest;
  }
};

/// Collapsed-claim Bracha-style broadcast (participants > 3f): fixed-size
/// GF(2^16) transcript digests (evaluation points from `digest_seed`, see
/// claim_digest) travel through echo/ready quorums while the full
/// transcript is unicast exactly once per (claimant, receiver) pair; digest-mismatched pairs (the disputed
/// minority) fall back to a retrieval round asking <= 2f+1 of the
/// echoer-holders, among which the >= f+1 honest holders any accepted
/// digest guarantees always answer. DC1 costs O(n^2 * digest + disputes *
/// f * L). Every honest participant decides the same payload per claimant,
/// equal to the claimant's input when the claimant is honest (pinned
/// against the EIG oracle by tests/bb/test_claim_equivalence.cpp).
claim_outcome broadcast_claims(channel_plan& channels, sim::network& net,
                               const sim::fault_set& faults,
                               const std::vector<claim_instance>& instances, int f,
                               claim_adversary* adv = nullptr,
                               relay_adversary* relay_adv = nullptr,
                               std::uint64_t digest_seed = 0);

}  // namespace nab::bb
