// Throughput-side properties across seeded random networks: the realized
// per-instance rates dominate the worst-case quantities (gamma_k >= gamma*,
// rho_k >= rho* — the monotonicity Section 5.1 builds on), fault-free
// measured throughput beats the paper's NAB lower bound, and Theorem 3's
// algebra holds on every draw.

#include <gtest/gtest.h>

#include <memory>

#include "core/nab.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nab::core {
namespace {

class ThroughputProperty : public ::testing::TestWithParam<std::uint64_t> {};

graph::digraph draw_graph(std::uint64_t seed) {
  rng rand(seed);
  return graph::erdos_renyi(5, 0.85, 1, 5, rand);
}

TEST_P(ThroughputProperty, RealizedRatesDominateWorstCase) {
  const graph::digraph g = draw_graph(GetParam());
  std::unique_ptr<session> s;
  try {
    s = std::make_unique<session>(session_config{.g = g, .f = 1}, sim::fault_set(5));
  } catch (const ::nab::error&) {
    GTEST_SKIP() << "draw below 2f+1 connectivity";
  }
  const capacity_bounds b = compute_bounds(g, 0, 1, gamma_mode::exhaustive);
  EXPECT_GE(s->next_gamma(), b.gamma_star);
  EXPECT_GE(static_cast<double>(s->next_rho()), std::floor(b.rho_star));
}

TEST_P(ThroughputProperty, FaultFreeMeasuredBeatsNabBound) {
  const graph::digraph g = draw_graph(GetParam());
  std::unique_ptr<session> s;
  try {
    s = std::make_unique<session>(session_config{.g = g, .f = 1}, sim::fault_set(5));
  } catch (const ::nab::error&) {
    GTEST_SKIP() << "draw below 2f+1 connectivity";
  }
  const capacity_bounds b = compute_bounds(g, 0, 1, gamma_mode::exhaustive);
  rng rand(GetParam() ^ 0x77);
  s->run_many(3, 2048, rand);  // L = 32 Kib amortizes the flag term
  EXPECT_GE(s->stats().throughput() + 1e-9, b.nab_throughput_bound) << "seed "
                                                                    << GetParam();
}

TEST_P(ThroughputProperty, Theorem3AlgebraHolds) {
  const graph::digraph g = draw_graph(GetParam());
  const capacity_bounds b = compute_bounds(g, 0, 1, gamma_mode::exhaustive);
  EXPECT_GE(b.nab_throughput_bound + 1e-9, b.capacity_upper_bound / 3.0);
  if (static_cast<double>(b.gamma_star) <= b.rho_star) {
    EXPECT_GE(b.nab_throughput_bound + 1e-9, b.capacity_upper_bound / 2.0);
  }
  EXPECT_LE(b.nab_throughput_bound, b.capacity_upper_bound + 1e-9);
}

TEST_P(ThroughputProperty, AttackedThroughputStillCorrectAndImproving) {
  const graph::digraph g = draw_graph(GetParam());
  sim::fault_set faults(5, {2});
  stealth_disputer adv;
  std::unique_ptr<session> s;
  try {
    s = std::make_unique<session>(session_config{.g = g, .f = 1}, faults, &adv);
  } catch (const ::nab::error&) {
    GTEST_SKIP() << "draw below 2f+1 connectivity";
  }
  rng rand(GetParam() ^ 0x99);
  const auto first = s->run_many(4, 64, rand);
  const double early = s->stats().throughput();
  const auto later = s->run_many(12, 64, rand);
  const double late = s->stats().throughput();
  for (const auto& r : first) {
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity);
  }
  for (const auto& r : later) {
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity);
  }
  EXPECT_GE(late, early);  // amortization only improves the running average
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThroughputProperty,
                         ::testing::Values(7, 19, 23, 31, 41, 53, 61, 71));

}  // namespace
}  // namespace nab::core
