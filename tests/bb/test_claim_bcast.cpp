// Unit tests for the claim broadcast (bb/claim_bcast.hpp): digest algebra,
// the collapsed Bracha-style engine's agreement/validity under digest
// equivocation, echo/ready suppression and forged retrievals, and the n > 3f
// boundary it shares with Broadcast Default.

#include "bb/claim_bcast.hpp"

#include <gtest/gtest.h>

#include "bb/broadcast.hpp"
#include "core/omega_cache.hpp"
#include "eig_oracle.hpp"
#include "graph/generators.hpp"

namespace nab::bb {
namespace {

// --- harness ---------------------------------------------------------------

struct harness {
  graph::digraph g;
  sim::network net;
  channel_plan plan;
  sim::fault_set faults;

  harness(graph::digraph graph, int f, std::vector<graph::node_id> corrupt = {})
      : g(graph),
        net(g),
        plan(g, f, core::omega_cache::instance().channel_routes_for(g, f)),
        faults(g.universe(), corrupt) {}
};

/// Distinct multi-word claims, one per active node.
std::vector<claim_instance> distinct_claims(const graph::digraph& g) {
  std::vector<claim_instance> out;
  for (graph::node_id v : g.active_nodes()) {
    claim_instance inst;
    inst.source = v;
    inst.input = {static_cast<std::uint64_t>(v) * 0x1111 + 7,
                  static_cast<std::uint64_t>(v), 0xabcdef};
    inst.value_bits = 64 * 3;
    out.push_back(std::move(inst));
  }
  return out;
}

void expect_all_decide_inputs(const claim_outcome& out,
                              const std::vector<claim_instance>& instances,
                              const harness& h, const char* ctx) {
  ASSERT_EQ(out.agreed.size(), instances.size()) << ctx;
  for (std::size_t q = 0; q < instances.size(); ++q)
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      EXPECT_EQ(out.agreed[q][static_cast<std::size_t>(v)], instances[q].input)
          << ctx << " instance " << q << " node " << v;
    }
}

void expect_honest_agree(const claim_outcome& out, const harness& h,
                         const char* ctx) {
  for (std::size_t q = 0; q < out.agreed.size(); ++q) {
    const value* first = nullptr;
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      const value& mine = out.agreed[q][static_cast<std::size_t>(v)];
      if (first == nullptr) {
        first = &mine;
      } else {
        EXPECT_EQ(mine, *first) << ctx << " instance " << q << " node " << v;
      }
    }
  }
}

// --- digest ----------------------------------------------------------------

TEST(ClaimDigest, DeterministicAndContentSensitive) {
  const value a = {1, 2, 3};
  EXPECT_EQ(claim_digest_of(a), claim_digest_of(a));
  EXPECT_NE(claim_digest_of(a), claim_digest_of(value{1, 2, 4}));
  EXPECT_NE(claim_digest_of(a), claim_digest_of(value{1, 2}));
  // Length is absorbed, so zero-padding changes the digest.
  EXPECT_NE(claim_digest_of(value{}), claim_digest_of(value{0}));
  EXPECT_NE(claim_digest_of(value{0}), claim_digest_of(value{0, 0}));
}

TEST(ClaimDigest, SeedMovesTheEvaluationPoints) {
  // The points are per-run protocol state (sessions feed their coding
  // seed): a fixed public point set would make collisions closed-form
  // linear algebra instead of a seeded-randomness bet.
  const value a = {0xfeed, 42, 7};
  EXPECT_EQ(claim_digest_of(a, 99), claim_digest_of(a, 99));
  EXPECT_NE(claim_digest_of(a, 99), claim_digest_of(a, 100));
  EXPECT_NE(claim_digest_of(a, 0), claim_digest_of(a, 0x5eed));
}

TEST(ClaimDigest, PackedRoundTrips) {
  const claim_digest d = claim_digest_of({0xdeadbeef, 42});
  EXPECT_EQ(claim_digest::from_packed(d.packed()), d);
  EXPECT_EQ(claim_digest::from_packed(0), claim_digest{});
}

// --- honest paths ----------------------------------------------------------

TEST(ClaimBroadcast, DecidesSubmittedInputs) {
  // K_9 f=2 (n > 4f) and K_7 f=2 (3f < n <= 4f).
  for (int n : {9, 7}) {
    harness h(graph::complete(n), 2, {2, 5});  // corrupt but in-BB honest
    const auto instances = distinct_claims(h.g);
    const claim_outcome out = broadcast_claims(h.plan, h.net, h.faults, instances, 2);
    expect_all_decide_inputs(out, instances, h, n == 9 ? "K_9" : "K_7");
    EXPECT_EQ(out.fallback_retrievals, 0);
    EXPECT_GT(h.net.total_bits(), 0u);
  }
}

TEST(ClaimBroadcast, CollapsedAgreesUnderAnyDigestSeed) {
  for (std::uint64_t seed : {0ull, 0x5eedull, ~0ull}) {
    harness h(graph::complete(7), 2, {1, 6});
    const auto instances = distinct_claims(h.g);
    const claim_outcome out =
        broadcast_claims(h.plan, h.net, h.faults, instances, 2, nullptr, nullptr, seed);
    expect_all_decide_inputs(out, instances, h, "seeded");
    EXPECT_EQ(out.fallback_retrievals, 0);
  }
}

TEST(ClaimBroadcast, CollapsedRunsOnEmulatedSparseChannels) {
  // Remove a link so some logical channels route over 2f+1 disjoint paths.
  graph::digraph g = graph::complete(6, 2);
  g.remove_edge_pair(0, 3);
  harness h(g, 1, {4});
  const auto instances = distinct_claims(h.g);
  const claim_outcome out = broadcast_claims(h.plan, h.net, h.faults, instances, 1);
  expect_all_decide_inputs(out, instances, h, "sparse-collapsed");
  EXPECT_EQ(out.fallback_retrievals, 0);
}

TEST(ClaimBroadcast, CollapsedChargesPolynomiallyFewerClaimBitsThanEig) {
  // Same instances, same topology: the collapsed backend must transfer each
  // transcript once per pair instead of once per EIG label relay.
  const graph::digraph g = graph::complete(10);
  std::vector<claim_instance> instances;
  for (graph::node_id v : g.active_nodes()) {
    claim_instance inst;
    inst.source = v;
    inst.input.assign(64, static_cast<std::uint64_t>(v) + 1);  // 4 KiB claims
    inst.value_bits = 64 * 64;
    instances.push_back(std::move(inst));
  }
  harness eig_h(g, 2, {1, 2});
  const claim_outcome eig_out =
      eig_claims(eig_h.plan, eig_h.net, eig_h.faults, instances, 2);
  harness col_h(g, 2, {1, 2});
  const claim_outcome col_out =
      broadcast_claims(col_h.plan, col_h.net, col_h.faults, instances, 2);
  EXPECT_EQ(eig_out.agreed, col_out.agreed);
  EXPECT_GT(eig_h.net.total_bits(), 10 * col_h.net.total_bits())
      << "eig=" << eig_h.net.total_bits() << " collapsed=" << col_h.net.total_bits();
}

// --- the adversary hooks ---------------------------------------------------

/// Claimant equivocation: even receivers get the honest payload, odd ones a
/// substituted payload (with a matching digest — a "clean" equivocation).
class equivocating_claimant : public claim_adversary {
 public:
  value propose_payload(graph::node_id, graph::node_id receiver,
                        const value& honest) override {
    return receiver % 2 == 0 ? honest : value{0xbad, 0xbad};
  }
};

TEST(ClaimBroadcast, CollapsedEquivocatingClaimantCannotSplitHonestNodes) {
  harness h(graph::complete(7), 2, {0, 3});
  const auto instances = distinct_claims(h.g);
  equivocating_claimant adv;
  const claim_outcome out = broadcast_claims(h.plan, h.net, h.faults, instances, 2, &adv);
  expect_honest_agree(out, h, "equivocate");
  // Honest claimants are untouched by the corrupt ones' equivocation.
  for (std::size_t q = 0; q < instances.size(); ++q) {
    if (h.faults.is_corrupt(instances[q].source)) continue;
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      EXPECT_EQ(out.agreed[q][static_cast<std::size_t>(v)], instances[q].input);
    }
  }
}

TEST(ClaimBroadcast, CollapsedDigestMismatchedPairsFallBackToRetrieval) {
  harness h(graph::complete(7), 2, {5});
  auto instances = distinct_claims(h.g);
  // Make the corrupt claimant's honest input recognizable.
  for (auto& inst : instances)
    if (inst.source == 5) inst.input = {0x5555, 0x5555};

  class mismatcher : public claim_adversary {
   public:
    value propose_payload(graph::node_id, graph::node_id receiver,
                          const value& honest) override {
      // Receivers 0..1 get garbage (any more and the honest holders would
      // drop below the echo quorum of (n+f)/2 + 1 = 5, making the claimant
      // simply unaccepted); the announced digest stays the honest one, so
      // the garbage mismatches and exactly those pairs retrieve.
      return receiver <= 1 ? value{0xf0f0} : honest;
    }
    claim_digest announce_digest(graph::node_id, graph::node_id,
                                 const claim_digest&) override {
      return claim_digest_of({0x5555, 0x5555});  // the honest input's digest
    }
  } adv;

  const claim_outcome out = broadcast_claims(h.plan, h.net, h.faults, instances, 2, &adv);
  expect_honest_agree(out, h, "digest-mismatch");
  EXPECT_GT(out.fallback_retrievals, 0);
  // Every honest node ends with the payload backing the accepted digest —
  // enough honest holders exist to serve the mismatched minority.
  for (std::size_t q = 0; q < instances.size(); ++q) {
    if (instances[q].source != 5) continue;
    for (graph::node_id v : h.g.active_nodes()) {
      if (h.faults.is_corrupt(v)) continue;
      EXPECT_EQ(out.agreed[q][static_cast<std::size_t>(v)],
                (value{0x5555, 0x5555}));
    }
  }
}

/// Suppresses every echo and ready toward one victim and forges retrieval
/// responses: quorum arithmetic and the digest filter must keep all honest
/// nodes identical anyway.
class suppressor : public claim_adversary {
 public:
  std::optional<claim_digest> echo_digest(
      graph::node_id, graph::node_id receiver, std::size_t,
      const std::optional<claim_digest>& honest) override {
    return receiver == 1 ? std::nullopt : honest;
  }
  bool suppress_ready(graph::node_id, graph::node_id receiver,
                      std::size_t) override {
    return receiver == 1;
  }
  std::optional<value> serve_retrieval(graph::node_id, graph::node_id,
                                       std::size_t,
                                       const std::optional<value>&) override {
    return value{0xdead};  // forged; filtered by the requester's digest check
  }
};

TEST(ClaimBroadcast, CollapsedSurvivesSuppressionAndForgedRetrievals) {
  harness h(graph::complete(7), 2, {0, 6});
  const auto instances = distinct_claims(h.g);
  suppressor adv;
  const claim_outcome out = broadcast_claims(h.plan, h.net, h.faults, instances, 2, &adv);
  expect_all_decide_inputs(out, instances, h, "suppression");
}

TEST(ClaimBroadcast, RejectsUndersizedGroupsAtTheBoundary) {
  // n = 6 <= 3f at f = 2: no Byzantine agreement exists, and both the claim
  // broadcast and Broadcast Default must abort at entry (sessions reject
  // n < 3f+1 at construction).
  harness h(graph::complete(6), 2);
  const auto instances = distinct_claims(h.g);
  EXPECT_DEATH(broadcast_claims(h.plan, h.net, h.faults, instances, 2),
               "more than 3f participants");
  EXPECT_DEATH(broadcast_default(h.plan, h.net, h.faults, 0, {1}, 2, 64),
               "more than 3f participants");
}

}  // namespace
}  // namespace nab::bb
