#include "core/omega.hpp"

#include <algorithm>
#include <atomic>

#include "graph/mincut.hpp"
#include "runtime/executor.hpp"
#include "util/assert.hpp"

namespace nab::core {

void dispute_record::add_dispute(graph::node_id a, graph::node_id b) {
  NAB_ASSERT(a != b, "a node cannot dispute itself");
  pairs_.insert({std::min(a, b), std::max(a, b)});
}

bool dispute_record::in_dispute(graph::node_id a, graph::node_id b) const {
  return pairs_.count({std::min(a, b), std::max(a, b)}) > 0;
}

int dispute_record::dispute_degree(graph::node_id v) const {
  int deg = 0;
  for (const auto& [a, b] : pairs_)
    if (a == v || b == v) ++deg;
  return deg;
}

namespace {

void enumerate_subsets(const std::vector<graph::node_id>& nodes, std::size_t target,
                       std::size_t start, std::vector<graph::node_id>& current,
                       const dispute_record& disputes,
                       std::vector<std::vector<graph::node_id>>& out) {
  if (current.size() == target) {
    out.push_back(current);
    return;
  }
  if (nodes.size() - start < target - current.size()) return;  // not enough left
  for (std::size_t i = start; i < nodes.size(); ++i) {
    const graph::node_id candidate = nodes[i];
    bool clean = true;
    for (graph::node_id chosen : current)
      if (disputes.in_dispute(chosen, candidate)) {
        clean = false;
        break;
      }
    if (!clean) continue;
    current.push_back(candidate);
    enumerate_subsets(nodes, target, i + 1, current, disputes, out);
    current.pop_back();
  }
}

}  // namespace

std::vector<std::vector<graph::node_id>> omega_subgraphs(const graph::digraph& g, int f,
                                                         const dispute_record& disputes) {
  const int n = g.universe();
  NAB_ASSERT(f >= 0 && n - f >= 1, "invalid fault budget for omega_subgraphs");
  const std::vector<graph::node_id> nodes = g.active_nodes();
  const auto target = static_cast<std::size_t>(n - f);
  std::vector<std::vector<graph::node_id>> out;
  if (nodes.size() < target) return out;
  std::vector<graph::node_id> current;
  enumerate_subsets(nodes, target, 0, current, disputes, out);
  return out;
}

namespace {

/// Is the subgraph of `u` induced by `h` connected? A plain BFS — orders of
/// magnitude cheaper than any min-cut, and a disconnected H pins U_k to 0.
bool induced_connected(const graph::ugraph& u, const std::vector<graph::node_id>& h) {
  if (h.size() <= 1) return true;
  std::vector<graph::node_id> stack = {h.front()};
  std::vector<bool> seen(static_cast<std::size_t>(u.universe()), false);
  seen[static_cast<std::size_t>(h.front())] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const graph::node_id v = stack.back();
    stack.pop_back();
    for (graph::node_id w : h) {
      if (seen[static_cast<std::size_t>(w)] || u.weight(v, w) == 0) continue;
      seen[static_cast<std::size_t>(w)] = true;
      ++reached;
      stack.push_back(w);
    }
  }
  return reached == h.size();
}

}  // namespace

graph::capacity_t compute_uk(const graph::digraph& g,
                             const std::vector<std::vector<graph::node_id>>& omega,
                             int jobs) {
  if (omega.empty()) return 0;
  const graph::ugraph u = to_undirected(g);
  // A cut of 0 is the minimum, so once one H yields it the remaining
  // subgraphs are skipped (their slots stay 0); the min-fold is
  // order-independent either way.
  std::vector<graph::capacity_t> cuts(omega.size(), 0);
  std::atomic<bool> zero{false};
  runtime::parallel_for_each_index(jobs, omega.size(), [&](std::size_t i) {
    if (zero.load(std::memory_order_relaxed)) return;
    const auto& h = omega[i];
    // Per-H minimum pair cut via Stoer–Wagner. A Gomory–Hu-tree query
    // (tests/support/gomory_hu.hpp) answers the same question but measured
    // 3-12x slower across every registry topology — Gusfield's |H|-1
    // max-flows lose to one dense O(|H|^3) pass at these sizes — so the tree
    // lives outside the library, for cross-checks and the capacity planner's
    // per-pair report (see docs/PAPER_MAP.md, "Choice of rho_k").
    if (h.size() >= 2 && induced_connected(u, h))
      cuts[i] = graph::pairwise_min_cut(u.induced(h));
    if (cuts[i] == 0) zero.store(true, std::memory_order_relaxed);
  });
  return *std::min_element(cuts.begin(), cuts.end());
}

graph::capacity_t compute_uk(const graph::digraph& g, int f,
                             const dispute_record& disputes) {
  return compute_uk(g, omega_subgraphs(g, f, disputes));
}

graph::capacity_t compute_rho(graph::capacity_t uk) {
  return std::max<graph::capacity_t>(uk / 2, 1);
}

}  // namespace nab::core
