#include "graph/mincut.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace nab::graph {

global_cut global_min_cut(const ugraph& g) {
  const std::vector<node_id> nodes = g.active_nodes();
  const auto n = nodes.size();
  NAB_ASSERT(n >= 2, "global_min_cut needs at least 2 active nodes");

  // Flat dense weight matrix over compacted indices; `live` lists the
  // uncontracted super-nodes, and merged[i] tracks which original nodes
  // super-node i contains.
  std::vector<capacity_t> w(n * n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) w[i * n + j] = g.weight(nodes[i], nodes[j]);
  std::vector<std::vector<node_id>> merged(n);
  for (std::size_t i = 0; i < n; ++i) merged[i] = {nodes[i]};
  std::vector<std::size_t> live(n);
  for (std::size_t i = 0; i < n; ++i) live[i] = i;

  global_cut best;
  best.value = std::numeric_limits<capacity_t>::max();
  std::vector<std::size_t> order;  // this phase's ordering, added prefix first
  std::vector<capacity_t> conn;    // conn[q]: adjacency of order[q] to the prefix
  while (live.size() > 1) {
    // Maximum-adjacency ordering: the next node is the most tightly
    // connected one outside the prefix (ties to the earliest position).
    const std::size_t m = live.size();
    order = live;
    conn.assign(m, 0);
    for (std::size_t step = 0; step < m; ++step) {
      std::size_t at = step;
      for (std::size_t q = step + 1; q < m; ++q)
        if (conn[q] > conn[at]) at = q;
      std::swap(order[step], order[at]);
      std::swap(conn[step], conn[at]);
      const capacity_t* row = w.data() + order[step] * n;
      for (std::size_t q = step + 1; q < m; ++q) conn[q] += row[order[q]];
    }
    // Cut-of-the-phase: the last node against everything else; then
    // contract it into the one before it.
    const std::size_t last = order[m - 1], prev = order[m - 2];
    if (conn[m - 1] < best.value) {
      best.value = conn[m - 1];
      best.side = merged[last];
    }
    live.erase(std::find(live.begin(), live.end(), last));
    merged[prev].insert(merged[prev].end(), merged[last].begin(), merged[last].end());
    for (std::size_t v : live) {
      if (v == prev) continue;
      w[prev * n + v] += w[last * n + v];
      w[v * n + prev] = w[prev * n + v];
    }
  }
  std::sort(best.side.begin(), best.side.end());
  return best;
}

capacity_t pairwise_min_cut(const ugraph& g) {
  if (g.active_count() < 2) return 0;
  return global_min_cut(g).value;
}

}  // namespace nab::graph
