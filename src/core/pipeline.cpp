#include "core/pipeline.hpp"

#include <algorithm>

#include "bb/broadcast.hpp"
#include "bb/channels.hpp"
#include "core/coding.hpp"
#include "core/equality_check.hpp"
#include "core/omega.hpp"
#include "core/omega_cache.hpp"
#include "core/phase1.hpp"
#include "core/value.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::core {
namespace {

/// Tree edges grouped by hop level (level 1 = out of the source).
struct level_schedule {
  struct hop {
    int tree;
    graph::node_id from;
    graph::node_id to;
  };
  std::vector<std::vector<hop>> levels;  // index 0 unused
  int depth = 0;
};

level_schedule schedule_trees(const std::vector<graph::spanning_tree>& trees,
                              graph::node_id source, int universe) {
  level_schedule out;
  out.levels.resize(1);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    std::vector<int> depth(static_cast<std::size_t>(universe), -1);
    depth[static_cast<std::size_t>(source)] = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      for (const graph::edge& e : trees[t].edges) {
        if (depth[static_cast<std::size_t>(e.to)] >= 0) continue;
        const int dp = depth[static_cast<std::size_t>(e.from)];
        if (dp >= 0) {
          depth[static_cast<std::size_t>(e.to)] = dp + 1;
          progress = true;
        }
      }
    }
    for (const graph::edge& e : trees[t].edges) {
      const int lvl = depth[static_cast<std::size_t>(e.to)];
      NAB_ASSERT(lvl > 0, "tree edge unreachable from the source");
      if (static_cast<std::size_t>(lvl) >= out.levels.size())
        out.levels.resize(static_cast<std::size_t>(lvl) + 1);
      out.levels[static_cast<std::size_t>(lvl)].push_back(
          {static_cast<int>(t), e.from, e.to});
      out.depth = std::max(out.depth, lvl);
    }
  }
  return out;
}

}  // namespace

pipeline_stats run_pipelined(const pipeline_config& cfg, int q, std::size_t words,
                             rng& rand) {
  NAB_ASSERT(q > 0 && words > 0, "pipeline needs instances and payload");
  const graph::digraph& g = cfg.g;
  const int universe = g.universe();
  const sim::fault_set faults(universe);  // Appendix D regime: fault-free

  const auto plan = omega_cache::instance().plan_for(g, cfg.source);
  const auto gamma = plan->gamma;
  if (gamma < 1) throw error("pipeline: source cannot reach every node");
  const std::vector<graph::spanning_tree>& trees = plan->trees;
  const level_schedule sched = schedule_trees(trees, cfg.source, universe);

  const auto analysis = omega_cache::instance().analyze(g, cfg.f, dispute_record{});
  const auto rho = analysis->rho;
  const coding_scheme coding =
      coding_scheme::generate(g, static_cast<int>(rho), cfg.coding_seed);

  // Inputs and per-instance, per-tree chunk state: holding[i][t][v].
  std::vector<std::vector<word>> inputs(static_cast<std::size_t>(q));
  for (auto& in : inputs) {
    in.resize(words);
    for (auto& w : in) w = static_cast<word>(rand.below(65536));
  }
  std::vector<std::vector<std::vector<chunk>>> holding(
      static_cast<std::size_t>(q),
      std::vector<std::vector<chunk>>(trees.size(),
                                      std::vector<chunk>(static_cast<std::size_t>(universe))));
  const std::uint64_t chunk_bits =
      16 * split_into_chunks(inputs[0], static_cast<int>(gamma))[0].size();

  sim::network net(g);
  bb::channel_plan channels(g, cfg.f,
                            omega_cache::instance().channel_routes_for(g, cfg.f));

  pipeline_stats stats;
  stats.instances = q;
  stats.gamma = gamma;
  stats.rho = rho;
  stats.depth = sched.depth;
  stats.bits = static_cast<std::uint64_t>(q) * 16 * words;

  // Rounds: in round r, instance i (entered at round i) executes hop level
  // r - i + 1; the instance whose last hop lands this round then runs its
  // Equality Check and flag broadcast in the remainder of the round.
  const int total_rounds = q + sched.depth - 1;
  double flags_time_total = 0.0;
  double ec_time_total = 0.0;
  obs::scoped_span schedule_span("pipelined_schedule", net.elapsed());
  for (int r = 0; r < total_rounds; ++r) {
    // Hop transmissions of every in-flight instance — disjoint levels, so
    // no two instances load the same tree edge in the same round.
    for (int i = std::max(0, r - sched.depth + 1); i <= std::min(r, q - 1); ++i) {
      const int level = r - i + 1;
      if (level > sched.depth) continue;
      if (level == 1) {
        const auto shares = split_into_chunks(inputs[static_cast<std::size_t>(i)],
                                              static_cast<int>(gamma));
        for (std::size_t t = 0; t < trees.size(); ++t)
          holding[static_cast<std::size_t>(i)][t][static_cast<std::size_t>(cfg.source)] =
              shares[t];
      }
      for (const auto& h : sched.levels[static_cast<std::size_t>(level)]) {
        auto& inst = holding[static_cast<std::size_t>(i)];
        net.charge(h.from, h.to, chunk_bits);
        inst[static_cast<std::size_t>(h.tree)][static_cast<std::size_t>(h.to)] =
            inst[static_cast<std::size_t>(h.tree)][static_cast<std::size_t>(h.from)];
      }
    }
    net.end_step();

    // Completing instance (if any) verifies within the same round.
    const int done = r - sched.depth + 1;
    if (done >= 0 && done < q) {
      std::vector<value_vector> values(static_cast<std::size_t>(universe));
      for (graph::node_id v : g.active_nodes()) {
        std::vector<chunk> got(trees.size());
        for (std::size_t t = 0; t < trees.size(); ++t)
          got[t] = holding[static_cast<std::size_t>(done)][t][static_cast<std::size_t>(v)];
        const auto assembled = assemble_chunks(got, words);
        values[static_cast<std::size_t>(v)] =
            value_vector::reshape(assembled, static_cast<int>(rho));
        stats.all_valid =
            stats.all_valid && assembled == inputs[static_cast<std::size_t>(done)];
      }
      const auto ec = run_equality_check(net, g, faults, coding, values);
      ec_time_total += ec.time;
      for (graph::node_id v : g.active_nodes())
        if (ec.flags[static_cast<std::size_t>(v)])
          throw error("pipeline: unexpected mismatch in a fault-free run");
      std::vector<bool> flag_inputs(static_cast<std::size_t>(universe), false);
      const auto flags = bb::broadcast_flags_phase_king(channels, net, faults,
                                                        flag_inputs, cfg.f,
                                                        g.active_nodes());
      flags_time_total += flags.time;
    }
  }
  schedule_span.close(net.elapsed());
  stats.elapsed = net.elapsed();
  stats.all_agreed = true;  // fault-free by construction; validity checked above

  // The same Q instances executed back-to-back without pipelining pay the
  // full depth on every instance (store-and-forward Phase 1): depth hops of
  // L/gamma each (chunk_bits is the padded L/gamma on unit-capacity trees),
  // plus the same per-instance verification costs.
  stats.sequential = q * (sched.depth * static_cast<double>(chunk_bits) +
                          ec_time_total / std::max(1, q) +
                          flags_time_total / std::max(1, q));
  return stats;
}

}  // namespace nab::core
