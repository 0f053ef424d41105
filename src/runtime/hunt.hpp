#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bb/claim_bcast.hpp"
#include "core/adversary.hpp"
#include "runtime/metrics.hpp"
#include "runtime/scenario.hpp"
#include "util/rng.hpp"

/// fleet --hunt: deterministic, sharded, coverage-guided adversary search.
///
/// The fleet's hand-written strategies (core/strategies.hpp) bound our
/// confidence in the paper's dispute machinery by our own imagination. The
/// hunt closes that gap: the full strategy space the adversary model allows
/// — which phase to attack, equivocation/garble patterns, the collapsed
/// claim broadcast's digest-equivocation / echo-suppression / forged-retrieval
/// hooks, even the corrupt-set choice — is parameterized as a serializable
/// `hunt_genome`, evaluated in cheap batches across the work-stealing
/// executor, and scored by *minimizing* the PR-5 invariant-margin gauges
/// (margin_quorum_slack / margin_hold_surplus / margin_dispute_headroom):
/// smaller margin = the run was driven closer to the edge where a quorum
/// rule or the paper's f(f+1) dispute bound would have failed. An actual
/// invariant violation is the jackpot the search exists to find (and CI
/// asserts it never does).
///
/// Novelty detection keeps the search exploring instead of re-finding one
/// basin: every evaluation folds its deterministic obs counters and gauges
/// into an obs::signature_mix behavioral signature, and genomes that reach
/// a never-seen signature enter the corpus even when their score does not
/// improve on any champion.
///
/// Determinism contract (the same one the fleet sweep honors): every
/// evaluation seed derives from (hunt seed, evaluation index) by splitmix64,
/// and all mutation/crossover/selection decisions draw from a single
/// splitmix64-seeded stream on the coordinating thread, ordered by
/// evaluation index — never by completion order — so the corpus is
/// byte-identical across `--jobs 1` and `--jobs N`.
///
/// The worst genomes found get *promoted*: checked into the scenario
/// registry as `hunted_*` presets (scenario::genome carries the serialized
/// genome) that tier-1 replays as regression tests forever. See docs/HUNT.md
/// for the schema, scoring, and promotion workflow.

namespace nab::runtime {

/// A point in adversary-strategy space. Every field is an integer so the
/// serialized forms (to_params / corpus JSON) round-trip exactly; rate
/// fields are levels in 0..255 meaning probability level/255 (0 = hook
/// behaves honestly, 255 = attacks on every invocation).
struct hunt_genome {
  // --- per-hook attack rates over the core adversary surface ---
  std::uint8_t p1_source = 0;        ///< garble chunks a corrupt source sends
  std::uint8_t p1_forward = 0;       ///< garble chunks a corrupt relay forwards
  std::uint8_t p2_lie = 0;           ///< garble Equality-Check coded symbols
  std::uint8_t flag_flip = 0;        ///< invert step-2.2 flags (forces DC)
  std::uint8_t claim_tamper = 0;     ///< tamper Phase-3 claim transcripts
  std::uint8_t input_lie = 0;        ///< tamper the DC1 source-input claim
  // --- claim-broadcast hooks (bb::claim_adversary) ---
  std::uint8_t digest_equivocate = 0;///< propose different payloads per receiver
  std::uint8_t digest_garble = 0;    ///< announce a digest != the payload's
  std::uint8_t echo_suppress = 0;    ///< withhold echoes (starve echo quorums)
  std::uint8_t ready_suppress = 0;   ///< withhold readys (squeeze accept slack)
  std::uint8_t retrieval_forge = 0;  ///< serve forged retrieval responses
  // --- patterns ---
  std::uint16_t xor_mask = 0xFFFF;   ///< garble pattern; 0 = fresh random words
  std::uint8_t victim_mode = 0;      ///< 0 = attack every receiver, 1 = only the
                                     ///< lowest-id active node (stealth shape)
  std::uint8_t corrupt_source = 0;   ///< nonzero pins the source into the
                                     ///< corrupt set (equivocation regime)
  std::uint8_t corrupt_salt = 0;     ///< perturbs the corrupt-set draw
  std::uint8_t noise_salt = 0;       ///< decorrelates the genome's rng stream

  bool operator==(const hunt_genome&) const = default;

  /// Compact fixed-order "key=value,..." form — what scenario::genome and
  /// the registry's hunted_* presets carry. from_params(to_params()) is the
  /// identity; from_params throws nab::error on any malformed input.
  std::string to_params() const;
  static hunt_genome from_params(std::string_view text);

  /// JSON object with one named integer member per field (corpus files).
  json to_json() const;
};

/// The genome, executed: an adversary driving every corrupt node, plus the
/// claim-broadcast hooks, with all randomness drawn from streams
/// derived from (run seed, genome.noise_salt) — replaying the same genome
/// under the same scenario and seed reproduces the run_record bit for bit.
class genome_adversary : public core::nab_adversary {
 public:
  genome_adversary(const hunt_genome& g, std::uint64_t seed);

  void on_instance_begin(int instance_index, const graph::digraph& gk) override;
  core::chunk phase1_source_chunk(int tree, graph::node_id to,
                                  const core::chunk& honest) override;
  core::chunk phase1_forward_chunk(int tree, graph::node_id from, graph::node_id to,
                                   const core::chunk& honest) override;
  core::coded_symbols phase2_coded(graph::node_id u, graph::node_id v,
                                   const core::coded_symbols& honest) override;
  bool phase2_flag(graph::node_id v, bool honest) override;
  core::node_claims phase3_claims(graph::node_id v,
                                  const core::node_claims& honest) override;
  std::vector<core::word> phase3_source_input(
      const std::vector<core::word>& honest) override;
  bb::claim_adversary* claim_bcast() override { return &claim_; }

 private:
  /// The claim-broadcast attack surface, driven by the same genome.
  class claim_hooks : public bb::claim_adversary {
   public:
    claim_hooks(const hunt_genome& g, std::uint64_t seed) : g_(g), rand_(seed) {}
    bb::value propose_payload(graph::node_id claimant, graph::node_id receiver,
                              const bb::value& honest) override;
    bb::claim_digest announce_digest(graph::node_id claimant, graph::node_id receiver,
                                     const bb::claim_digest& honest) override;
    std::optional<bb::claim_digest> echo_digest(
        graph::node_id participant, graph::node_id receiver, std::size_t q,
        const std::optional<bb::claim_digest>& honest) override;
    bool suppress_ready(graph::node_id participant, graph::node_id receiver,
                        std::size_t q) override;
    std::optional<bb::value> serve_retrieval(
        graph::node_id participant, graph::node_id requester, std::size_t q,
        const std::optional<bb::value>& honest) override;

   private:
    /// Structural strike decision, keyed on (actor, peer, instance, gene
    /// tag, noise_salt) — NOT drawn from the sequential stream. The claim
    /// layer's attack *pattern* (who gets equivocated, which readys are
    /// withheld) is therefore a pure function of the genome and topology:
    /// a promoted genome records the same margins under every run seed and
    /// run index, which is what makes corpus replay and the hunted_*
    /// regression presets exact. Only the *content* of forged payloads
    /// still comes from `rand_` (it never affects the margins).
    bool strike(std::uint8_t level, graph::node_id a, graph::node_id b,
                std::uint64_t q, std::uint64_t tag) const;

    const hunt_genome& g_;
    rng rand_;
  };

  bool strikes(std::uint8_t level) { return rand_.chance(level / 255.0); }
  bool targets(graph::node_id to) const {
    return g_.victim_mode == 0 || to == victim_;
  }

  hunt_genome g_;
  rng rand_;
  graph::node_id victim_ = -1;  ///< lowest active node this instance
  claim_hooks claim_;
};

/// One promoted or novelty-preserving search result. `run_index` is the
/// evaluation index whose derive_run_seed(corpus seed, run_index) seed the
/// entry was measured under — replay_entry reproduces the record exactly.
struct corpus_entry {
  std::string context;   ///< evaluation-context scenario name (see hunt_contexts)
  std::string gauge;     ///< championed gauge name; empty for novelty entries
  hunt_genome genome;
  int run_index = 0;
  std::uint64_t signature = 0;
  std::int64_t margin_quorum_slack = -1;
  std::int64_t margin_hold_surplus = -1;
  std::int64_t margin_dispute_headroom = -1;
  std::int64_t score = 0;  ///< margin_score of the evaluation (lower = worse case)
  bool ok = true;          ///< paper invariants held (false = a found violation)

  bool operator==(const corpus_entry&) const = default;
};

/// Everything a hunt persists: the settings that reconstruct its evaluation
/// contexts, per-(context, gauge) champions, first-seen novelty entries, and
/// any invariant violations (expected empty — each one is a repo bug the
/// hunt just found).
struct hunt_corpus {
  std::string families;
  std::uint64_t seed = 0;
  int budget = 0;
  std::uint64_t words = 16;
  int instances = 0;       ///< 0 = family default
  int evaluations = 0;
  int violations = 0;     ///< probes whose run broke a paper invariant
  int errors = 0;         ///< probes that threw (infeasible configurations)
  std::vector<corpus_entry> champions;
  std::vector<corpus_entry> novel;
  /// Every invariant-violating probe, in discovery order (champions keep
  /// only the per-gauge minima; a violation must never be crowded out).
  std::vector<corpus_entry> violators;

  bool operator==(const hunt_corpus&) const = default;
};

struct hunt_config {
  std::string families = "complete-f2,ablation-claims";
  std::uint64_t seed = 1;
  int budget = 2000;       ///< total scenario evaluations
  int population = 12;     ///< genomes alive per generation
  int jobs = 1;            ///< executor shards (corpus identical for any value)
  std::uint64_t words = 16;///< cheap payloads: the margins are size-oblivious
  int instances = 0;       ///< instances per evaluation (0 = family default)
};

/// The evaluation contexts a hunt probes: every distinct (topology, f > 0)
/// of the named families, with the adversary axis forced to `hunted`.
/// Deterministic, so a corpus's contexts are
/// reconstructible from its persisted settings. Throws nab::error when no
/// named family contributes a fault-tolerant context.
std::vector<scenario> hunt_contexts(std::string_view families,
                                    std::uint64_t words, int instances);

/// Runs the search. `log`, when set, receives one progress line per
/// generation (display only — never part of the determinism contract).
hunt_corpus run_hunt(const hunt_config& cfg,
                     const std::function<void(const std::string&)>& log = {});

/// Re-executes one corpus entry bit-for-bit (reconstructs its context from
/// the corpus settings, installs the genome, derives the same run seed).
run_record replay_entry(const hunt_corpus& corpus, const corpus_entry& entry);

/// Scalar search score of a record: the sum of its margin gauges with
/// never-exercised gauges (-1) penalized as +1000 — minimizing it drives
/// runs that both *reach* the quorum machinery and squeeze it. Lower =
/// closer to the edge.
std::int64_t margin_score(const run_record& rec);

/// Behavioral novelty signature of a record: its deterministic obs counters
/// (log2-bucketed so near-identical runs coincide), outcome tallies, and raw
/// margin gauges folded through obs::signature_mix. Identical across --jobs
/// counts because every input is.
std::uint64_t record_signature(const run_record& rec);

/// Corpus <-> JSON. corpus_document is emitted with the runtime's
/// deterministic json sink; corpus_from_text parses exactly that shape
/// (throws nab::error on malformed or format-drifted input — the golden
/// corpus under tests/runtime/data/ makes drift a conscious bump).
json corpus_document(const hunt_corpus& corpus);
hunt_corpus corpus_from_text(std::string_view text);

}  // namespace nab::runtime
