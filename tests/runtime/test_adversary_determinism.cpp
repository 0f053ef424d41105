// Seed-determinism of every adversary strategy: the same (kind, seed)
// produces byte-identical run_records no matter how the run is hosted —
// pooled or unpooled session memory, one worker or many. This is the
// property the hunt (runtime/hunt.hpp) leans on hardest: a genome's fitness
// is only meaningful if replaying it is exact, and the chaos fuzzer is only
// a regression tool if its chaos is reproducible.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace nab::runtime {
namespace {

/// Every make_adversary kind, exercised on a topology where it is legal.
/// K_7 with f = 2 admits them all (equivocate pins the source corrupt).
std::vector<scenario> all_kind_scenarios(bool pool_memory) {
  const std::vector<adversary_kind> kinds = {
      adversary_kind::honest,      adversary_kind::p1_garble,
      adversary_kind::equivocate,  adversary_kind::p2_lie,
      adversary_kind::false_flag,  adversary_kind::stealth,
      adversary_kind::dispute_farm, adversary_kind::chaos,
      adversary_kind::hunted,
  };
  std::vector<scenario> sweep;
  for (adversary_kind kind : kinds) {
    scenario s;
    s.name = "advdet/" + to_string(kind);
    s.family = "advdet";
    s.topology = {.kind = topology_kind::complete, .n = 7, .cap_lo = 1,
                  .cap_hi = 1};
    s.f = 2;
    s.adversary = kind;
    s.instances = 3;
    s.words = 8;
    s.pool_memory = pool_memory;
    if (kind == adversary_kind::hunted)
      s.genome =
          "p1_source=0,p1_forward=200,p2_lie=60,flag_flip=60,claim_tamper=40,"
          "input_lie=0,digest_equivocate=100,digest_garble=0,echo_suppress=80,"
          "ready_suppress=100,retrieval_forge=40,xor_mask=0,victim_mode=0,"
          "corrupt_source=0,corrupt_salt=9,noise_salt=3";
    sweep.push_back(std::move(s));
  }
  return sweep;
}

TEST(AdversaryDeterminism, SameKindAndSeedReplaysByteIdentically) {
  const std::vector<scenario> sweep = all_kind_scenarios(/*pool_memory=*/true);
  for (const scenario& s : sweep) {
    const run_record a = execute_scenario(s, 5, 1234);
    const run_record b = execute_scenario(s, 5, 1234);
    EXPECT_EQ(a, b) << s.name;
    ASSERT_TRUE(a.ok()) << s.name;
  }
}

TEST(AdversaryDeterminism, PooledAndUnpooledRecordsAgree) {
  // pool_memory changes every allocation path in the session (arena reuse
  // vs heap) but must never change a single recorded bit — including the
  // chaos adversary's rng consumption and the obs counters.
  const auto pooled = all_kind_scenarios(true);
  const auto unpooled = all_kind_scenarios(false);
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    run_record a = execute_scenario(pooled[i], 2, 77);
    run_record b = execute_scenario(unpooled[i], 2, 77);
    // The arena tallies legitimately differ between the two modes, but they
    // live in run_timing (excluded from equality by design); every
    // protocol-visible field is covered by operator==. The record echoes
    // its scenario name, which embeds nothing about pooling — align it so
    // the comparison covers everything else.
    ASSERT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a, b) << pooled[i].name;
  }
}

TEST(AdversaryDeterminism, JobCountsNeverLeakIntoAdversaryRuns) {
  const std::vector<scenario> sweep = all_kind_scenarios(/*pool_memory=*/true);
  const auto one = run_sweep(sweep, 9, 1);
  const auto many = run_sweep(sweep, 9, 6);
  EXPECT_EQ(one, many);
}

TEST(AdversaryDeterminism, DifferentSeedsChangeSeededStrategies) {
  // The complement: chaos at two different seeds must actually diverge
  // somewhere (otherwise "seeded" is an illusion and the hunt's noise_salt
  // gene is dead weight).
  scenario s = all_kind_scenarios(true)[7];
  ASSERT_EQ(s.adversary, adversary_kind::chaos);
  const run_record a = execute_scenario(s, 0, 1);
  const run_record b = execute_scenario(s, 0, 2);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace nab::runtime
