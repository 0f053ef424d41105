#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "bb/channels.hpp"
#include "core/omega.hpp"
#include "graph/digraph.hpp"
#include "graph/tree_packing.hpp"

namespace nab::core {

/// Everything the paper derives from (G_k, f, disputes) alone — i.e. from
/// quantities that do NOT depend on a run's seed. Immutable once built;
/// shared read-only across executor shards via shared_ptr.
struct omega_analysis {
  std::vector<std::vector<graph::node_id>> omega;  ///< Omega_k enumeration
  graph::capacity_t uk = 0;                        ///< U_k over Omega_k
  graph::capacity_t rho = 0;                       ///< rho_k = max(U_k/2, 1)
  /// certify_cost_estimate(g, omega, rho): priced once per topology here so
  /// a sweep's per-run certify gate is a comparison, not a re-walk of omega.
  std::uint64_t certify_cost = 0;
};

/// The per-(G_k, source) half of Phase-1 state: gamma_k and the Edmonds
/// arborescence packing. Both are pure functions of the graph and root
/// (pack_arborescences seeds its greedy attempts from (k, root) only).
struct phase1_plan {
  graph::capacity_t gamma = 0;
  std::vector<graph::spanning_tree> trees;
  /// Deterministic packing work (charged to every run that uses this plan,
  /// hit or miss, so the counters sit inside the jobs-1-vs-N contract).
  graph::pack_stats stats;
};

struct omega_cache_stats {
  std::uint64_t analysis_hits = 0;
  std::uint64_t analysis_misses = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t connectivity_hits = 0;
  std::uint64_t connectivity_misses = 0;
  std::uint64_t route_hits = 0;
  std::uint64_t route_misses = 0;
};

/// Process-wide memo for topology analysis: Omega_k / U_k / rho_k keyed on
/// (graph fingerprint, f, dispute pairs) and Phase-1 plans keyed on
/// (graph fingerprint, source).
///
/// A fleet sweep re-derives the same answers for every run of a family
/// (deterministic presets expand to byte-identical graphs, and random ones
/// revisit the same instance graphs across adversary axes), so these
/// quantities are computed once per sweep instead of once per run.
///
/// Concurrency and determinism: entries are immutable behind
/// shared_ptr<const>, the table is guarded by a shared_mutex (reads
/// concurrent, inserts exclusive), and values are pure functions of their
/// keys — two shards racing on the same miss compute identical results and
/// the second insert is discarded, so a sweep's output is byte-identical
/// for every --jobs value regardless of hit/miss interleaving.
///
/// Collision safety: the 64-bit fingerprint only selects a bucket; every
/// bucket entry stores the full canonical key (universe, active set,
/// capacity matrix, f, dispute pairs) and is compared exactly on lookup, so
/// a fingerprint collision costs a compare, never a wrong answer.
class omega_cache {
 public:
  /// The process-wide instance used by core::session.
  static omega_cache& instance();

  /// Omega_k / U_k / rho_k of (g, f, disputes); computed on miss.
  std::shared_ptr<const omega_analysis> analyze(const graph::digraph& g, int f,
                                                const dispute_record& disputes);

  /// gamma_k and the arborescence packing of (g, source); computed on miss.
  /// Precondition: every active node reachable from `source` (throws
  /// nab::error via pack_arborescences otherwise).
  std::shared_ptr<const phase1_plan> plan_for(const graph::digraph& g,
                                              graph::node_id source);

  /// Memoized graph::global_vertex_connectivity_at_least(g, k) — the 2f+1
  /// precondition is re-validated by the runner and the session for every
  /// run of a sweep. The capped decision form keeps freshly drawn random
  /// topologies (which can never hit the cache) cheap too.
  bool connectivity_at_least(const graph::digraph& g, int k);

  /// Memoized bb::channel_plan::build_routes(g, f): the 2f+1 node-disjoint
  /// emulation routes of the step-2.2/Phase-3 classical-BB channels. Routes
  /// run over the ORIGINAL network G, so every session of a preset shares
  /// one table. Throws nab::error when some pair lacks 2f+1 disjoint paths.
  std::shared_ptr<const bb::channel_plan::route_table> channel_routes_for(
      const graph::digraph& g, int f);

  omega_cache_stats stats() const;

  /// The set-up worker count (<= 1 disables): the per-H U_k cuts of
  /// analysis fills, the per-sink/per-source loops of plan/route fills, and
  /// the session's certification elimination fan out over it. Results are
  /// order-independent writes into preallocated slots (or an exact
  /// elimination), so they are byte-identical for every value; the sweep
  /// runner wires its --jobs here.
  void set_fill_parallelism(int jobs);

  /// The worker count set-up work on `g` may use. Universes below 32 nodes
  /// always run inline (thread spawns would dominate, and the clean K_7
  /// allocation budget stays untouched).
  int fill_jobs(const graph::digraph& g) const;

  /// Drops every entry and zeroes the counters (tests, sweep boundaries).
  void clear();

 private:
  using canonical_key = std::vector<std::int64_t>;

  template <class V>
  struct bucket_entry {
    canonical_key key;
    std::shared_ptr<const V> value;
  };
  template <class V>
  using table = std::unordered_map<std::uint64_t, std::vector<bucket_entry<V>>>;

  /// Per-key in-flight latch: concurrent misses on one key elect a single
  /// filling thread; the rest block on the latch and adopt the winner's
  /// value (they count as hits — exactly one fill span and one miss per
  /// key). A leader that throws wakes the waiters, who re-probe and elect a
  /// new leader.
  struct inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  };

  /// The shared lookup/compute/insert sequence behind every public method:
  /// shared-lock probe, single-flight leader election on miss, unlocked
  /// compute by the leader only (misses on distinct keys still proceed in
  /// parallel), unique-lock insert. Counters are atomics because hits tick
  /// under the shared lock. `fill_span` names the obs span wrapped around
  /// the compute (misses only — which run pays one is
  /// scheduling-dependent, so fill spans and the per-run hit/miss counters
  /// belong to the machine set; the lookup count is the deterministic
  /// companion).
  template <class V, class Compute>
  std::shared_ptr<const V> get_or_compute(table<V>& tbl, canonical_key key,
                                          std::atomic<std::uint64_t>& hits,
                                          std::atomic<std::uint64_t>& misses,
                                          const char* fill_span,
                                          const Compute& compute);

  mutable std::shared_mutex mu_;
  std::mutex inflight_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<inflight>> inflight_;
  std::atomic<int> fill_jobs_{1};
  table<omega_analysis> analyses_;
  table<phase1_plan> plans_;
  table<int> connectivity_;
  table<bb::channel_plan::route_table> routes_;
  std::atomic<std::uint64_t> analysis_hits_{0};
  std::atomic<std::uint64_t> analysis_misses_{0};
  std::atomic<std::uint64_t> plan_hits_{0};
  std::atomic<std::uint64_t> plan_misses_{0};
  std::atomic<std::uint64_t> connectivity_hits_{0};
  std::atomic<std::uint64_t> connectivity_misses_{0};
  std::atomic<std::uint64_t> route_hits_{0};
  std::atomic<std::uint64_t> route_misses_{0};
};

/// 64-bit fingerprint of a digraph's exact state (universe, active set,
/// capacity matrix), splitmix-mixed. Exposed for tests; cache lookups back
/// it with a full-key compare.
std::uint64_t graph_fingerprint(const graph::digraph& g);

}  // namespace nab::core
