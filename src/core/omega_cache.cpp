#include "core/omega_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>

#include "core/certify.hpp"
#include "graph/connectivity.hpp"
#include "graph/maxflow.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"

namespace nab::core {

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fingerprint_words(const std::vector<std::int64_t>& words) {
  std::uint64_t h = 0x6f6d6567615f6bULL;  // "omega_k"
  for (std::int64_t w : words) h = mix64(h ^ static_cast<std::uint64_t>(w));
  return h;
}

/// Canonical serialization of a digraph: universe, active flags, then the
/// capacity of every ordered active pair. Two graphs serialize identically
/// iff they are operator==-equal on every field the analyses depend on.
void serialize_graph(const graph::digraph& g, std::vector<std::int64_t>& out) {
  const int n = g.universe();
  out.push_back(n);
  for (graph::node_id v = 0; v < n; ++v) out.push_back(g.is_active(v) ? 1 : 0);
  for (graph::node_id u = 0; u < n; ++u)
    for (graph::node_id v = 0; v < n; ++v)
      if (u != v) out.push_back(g.cap(u, v));
}

template <class V, class Table>
std::shared_ptr<const V> find_entry(const Table& table, std::uint64_t fp,
                                    const std::vector<std::int64_t>& key) {
  const auto it = table.find(fp);
  if (it == table.end()) return nullptr;
  for (const auto& entry : it->second)
    if (entry.key == key) return entry.value;
  return nullptr;
}

}  // namespace

std::uint64_t graph_fingerprint(const graph::digraph& g) {
  std::vector<std::int64_t> words;
  serialize_graph(g, words);
  return fingerprint_words(words);
}

omega_cache& omega_cache::instance() {
  static omega_cache cache;
  return cache;
}

template <class V, class Compute>
std::shared_ptr<const V> omega_cache::get_or_compute(
    table<V>& tbl, canonical_key key, std::atomic<std::uint64_t>& hits,
    std::atomic<std::uint64_t>& misses, const char* fill_span,
    const Compute& compute) {
  obs::count(obs::counter::cache_lookups);
  const std::uint64_t fp = fingerprint_words(key);
  const auto probe = [&]() -> std::shared_ptr<const V> {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return find_entry<V>(tbl, fp, key);
  };
  const auto count_hit = [&](std::shared_ptr<const V> hit) {
    hits.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::counter::cache_hits);
    return hit;
  };
  if (auto hit = probe()) return count_hit(std::move(hit));

  // Single-flight: elect one leader per key; everyone else waits on the
  // latch and adopts the inserted value as a hit. The in-flight map is keyed
  // on (table, fingerprint) — the table address disambiguates equal
  // fingerprints across the four caches so unrelated fills never serialize
  // behind each other's leader.
  const std::uint64_t inflight_key =
      mix64(fp ^ static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&tbl)));
  for (;;) {
    std::shared_ptr<inflight> slot;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      auto& entry = inflight_[inflight_key];
      if (!entry) {
        entry = std::make_shared<inflight>();
        leader = true;
      }
      slot = entry;
    }
    if (!leader) {
      {
        std::unique_lock<std::mutex> lk(slot->m);
        slot->cv.wait(lk, [&] { return slot->done; });
      }
      if (auto hit = probe()) return count_hit(std::move(hit));
      // The leader threw (or this was a fingerprint collision with a
      // different key): try to become leader ourselves.
      continue;
    }

    const auto release = [&] {
      {
        std::lock_guard<std::mutex> lk(inflight_mu_);
        const auto it = inflight_.find(inflight_key);
        if (it != inflight_.end() && it->second == slot) inflight_.erase(it);
      }
      std::lock_guard<std::mutex> lk(slot->m);
      slot->done = true;
      slot->cv.notify_all();
    };

    // Leadership won after a previous leader already filled the key: the
    // re-probe keeps "exactly one fill per key".
    if (auto hit = probe()) {
      release();
      return count_hit(std::move(hit));
    }

    std::shared_ptr<const V> value;
    try {
      obs::scoped_span span(fill_span);
      value = compute();
    } catch (...) {
      release();
      throw;
    }

    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      misses.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::counter::cache_misses);
      if (auto hit = find_entry<V>(tbl, fp, key))
        value = hit;  // fingerprint-collision twin; adopt it
      else
        tbl[fp].push_back({std::move(key), value});
    }
    release();
    return value;
  }
}

int omega_cache::fill_jobs(const graph::digraph& g) const {
  return g.universe() >= 32 ? fill_jobs_.load(std::memory_order_relaxed) : 1;
}

void omega_cache::set_fill_parallelism(int jobs) {
  fill_jobs_.store(jobs < 1 ? 1 : jobs, std::memory_order_relaxed);
}

std::shared_ptr<const omega_analysis> omega_cache::analyze(
    const graph::digraph& g, int f, const dispute_record& disputes) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(f);
  // Convicted nodes are already inactive in g; only the pairs affect Omega_k.
  for (const auto& [a, b] : disputes.pairs()) {
    key.push_back(a);
    key.push_back(b);
  }
  return get_or_compute(analyses_, std::move(key), analysis_hits_, analysis_misses_,
                        "omega_cache/fill_analysis", [&] {
                          auto value = std::make_shared<omega_analysis>();
                          value->omega = omega_subgraphs(g, f, disputes);
                          value->uk = compute_uk(g, value->omega, fill_jobs(g));
                          value->rho = compute_rho(value->uk);
                          value->certify_cost = certify_cost_estimate(
                              g, value->omega, static_cast<int>(value->rho));
                          return value;
                        });
}

std::shared_ptr<const phase1_plan> omega_cache::plan_for(const graph::digraph& g,
                                                         graph::node_id source) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(source);
  auto plan = get_or_compute(plans_, std::move(key), plan_hits_, plan_misses_,
                             "omega_cache/fill_plan", [&] {
    auto value = std::make_shared<phase1_plan>();
    // gamma = min over sinks of MINCUT(source, w): independent per-sink
    // flows into preallocated slots, so the filling thread may fan them out
    // (the min is order-independent; byte-identical for any worker count).
    const auto nodes = g.active_nodes();
    std::vector<graph::capacity_t> cuts(
        nodes.size(), std::numeric_limits<graph::capacity_t>::max());
    runtime::parallel_for_each_index(fill_jobs(g), nodes.size(), [&](std::size_t i) {
      if (nodes[i] != source) cuts[i] = graph::min_cut_value(g, source, nodes[i]);
    });
    // Fold like broadcast_mincut: 0 is a genuine min-cut (unreachable sink),
    // not an "unset" sentinel, so track whether any sink was seen explicitly.
    graph::capacity_t best = std::numeric_limits<graph::capacity_t>::max();
    bool any_sink = false;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i] != source) {
        best = std::min(best, cuts[i]);
        any_sink = true;
      }
    value->gamma = any_sink ? best : 0;
    if (value->gamma >= 1)
      value->trees = graph::pack_arborescences(
          g, source, static_cast<int>(value->gamma), &value->stats);
    return value;
  });
  // Charged on every lookup (hit or miss), so the planning counters are a
  // deterministic property of the run, not of cross-shard fill scheduling.
  obs::count(obs::counter::plan_safety_checks, plan->stats.safety_checks);
  obs::count(obs::counter::plan_flow_augmentations, plan->stats.flow_augmentations);
  return plan;
}

bool omega_cache::connectivity_at_least(const graph::digraph& g, int k) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(k);
  return *get_or_compute(connectivity_, std::move(key), connectivity_hits_,
                         connectivity_misses_, "omega_cache/fill_connectivity", [&] {
                           return std::make_shared<int>(
                               graph::global_vertex_connectivity_at_least(g, k) ? 1
                                                                                : 0);
                         }) != 0;
}

std::shared_ptr<const bb::channel_plan::route_table> omega_cache::channel_routes_for(
    const graph::digraph& g, int f) {
  canonical_key key;
  serialize_graph(g, key);
  key.push_back(f);
  auto routes = get_or_compute(routes_, std::move(key), route_hits_, route_misses_,
                               "omega_cache/fill_routes", [&] {
    // Per-source blocks into preallocated slots: each source's row is built
    // on its own warm-started residual network, so the filling thread may
    // fan the sources out. Block errors are captured, not thrown, and
    // assemble() surfaces the smallest-source failure — identical to the
    // serial builder's first-failing-pair error for every worker count.
    const int n = g.universe();
    std::vector<bb::channel_plan::source_block> blocks(static_cast<std::size_t>(n));
    runtime::parallel_for_each_index(fill_jobs(g), blocks.size(), [&](std::size_t u) {
      blocks[u] = bb::channel_plan::build_routes_for_source(
          g, f, static_cast<graph::node_id>(u));
    });
    return std::make_shared<const bb::channel_plan::route_table>(
        bb::channel_plan::assemble(g, std::move(blocks)));
  });
  obs::count(obs::counter::route_pairs, routes->stats().pairs);
  obs::count(obs::counter::route_flow_augmentations,
             routes->stats().flow_augmentations);
  return routes;
}

omega_cache_stats omega_cache::stats() const {
  omega_cache_stats out;
  out.analysis_hits = analysis_hits_.load(std::memory_order_relaxed);
  out.analysis_misses = analysis_misses_.load(std::memory_order_relaxed);
  out.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  out.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  out.connectivity_hits = connectivity_hits_.load(std::memory_order_relaxed);
  out.connectivity_misses = connectivity_misses_.load(std::memory_order_relaxed);
  out.route_hits = route_hits_.load(std::memory_order_relaxed);
  out.route_misses = route_misses_.load(std::memory_order_relaxed);
  return out;
}

void omega_cache::clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  analyses_.clear();
  plans_.clear();
  connectivity_.clear();
  routes_.clear();
  analysis_hits_ = 0;
  analysis_misses_ = 0;
  plan_hits_ = 0;
  plan_misses_ = 0;
  connectivity_hits_ = 0;
  connectivity_misses_ = 0;
  route_hits_ = 0;
  route_misses_ = 0;
}

}  // namespace nab::core
