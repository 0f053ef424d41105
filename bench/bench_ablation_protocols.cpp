// Ablation A3: the classical-BB engine behind step 2.2. The paper only
// requires *some* capacity-oblivious BB for the 1-bit flags; its cost enters
// the O(n^alpha) term that large L amortizes. The library ships one engine,
// the batched phase king, which runs two-round phases when n > 4f and
// three-round phases (Berman, Garay & Perry) when 3f < n <= 4f. This bench
// prices both variants at their resilience edges (n = 3f+1 and n = 4f+1)
// and shows that end-to-end NAB throughput is unchanged once L is large (the
// paper's point: the flag term is a constant in L).

#include <cstdio>

#include "bb/broadcast.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

double one_bit_cost(const nab::graph::digraph& g, int f) {
  using namespace nab;
  sim::network net(g);
  sim::fault_set faults(g.universe());
  bb::channel_plan plan(g, f);
  return bb::broadcast_default(plan, net, faults, 0, {1}, f, 1).time;
}

}  // namespace

int main() {
  using namespace nab;
  std::printf("A3: phase-king ablation (1-bit broadcast cost on K_n)\n");
  std::printf("  %-4s %-26s %-26s\n", "f", "three-round, n = 3f+1", "two-round, n = 4f+1");
  for (int f = 1; f <= 4; ++f)
    std::printf("  %-4d %-26.2f %-26.2f\n", f, one_bit_cost(graph::complete(3 * f + 1), f),
                one_bit_cost(graph::complete(4 * f + 1), f));

  std::printf("\n  end-to-end NAB throughput vs L (K5, f=1, fault-free):\n");
  std::printf("  %-12s %-14s %-16s\n", "L (bits)", "throughput", "flag-time share");
  for (std::size_t words : {64, 256, 1024, 4096, 16384}) {
    core::session s({.g = graph::complete(5, 2), .f = 1}, sim::fault_set(5));
    rng rand(3);
    const auto reports = s.run_many(2, words, rand);
    double flag_share = 0;
    for (const auto& r : reports) flag_share += r.time_flags / r.total_time();
    flag_share /= static_cast<double>(reports.size());
    std::printf("  %-12zu %-14.3f %.1f%%\n", 16 * words, s.stats().throughput(),
                100.0 * flag_share);
  }
  std::printf("  (flag share -> 0 as L grows: the O(n^alpha) term amortizes, so the\n"
              "   classical-BB engine choice cannot affect asymptotic throughput)\n");
  return 0;
}
