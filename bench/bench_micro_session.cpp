// M4: end-to-end engineering cost of simulating NAB instances (wall time,
// not simulated time) — how the library scales with n, L, and the dispute
// machinery. Self-timed; emits machine-readable JSON through the runtime
// metrics sink (BENCH_micro_session.json) alongside a human-readable table,
// so the perf trajectory is diffable across commits like BENCH_runtime.json.
//
// Alongside wall time, session benches report allocs_per_iter — heap
// allocations per iteration, counted by the operator-new interposition
// below. This is the arena PR's headline metric (the run arena eliminates
// >90% of per-instance allocations) and its regression trajectory.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bb/channels.hpp"
#include "core/nab.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "runtime/metrics.hpp"
#include "support/tree_packing_reference.hpp"
#include "util/heap_alloc_counter.hpp"
#include "util/rng.hpp"

namespace {

using nab::util::heap_allocs;

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Runs `body` repeatedly until ~0.2s of wall time has accumulated (at
/// least 3 iterations) and returns mean seconds per iteration.
template <typename Body>
std::pair<double, int> measure(Body&& body) {
  const auto t0 = clock_type::now();
  int iters = 0;
  do {
    body();
    ++iters;
  } while (seconds_since(t0) < 0.2 || iters < 3);
  return {seconds_since(t0) / iters, iters};
}

struct result {
  std::string name;
  std::string label;
  double sec_per_iter = 0.0;
  int iterations = 0;
  /// Heap allocations per iteration (-1 = not measured for this bench).
  double allocs_per_iter = -1.0;
};

std::vector<nab::core::word> random_words(std::size_t n, nab::rng& rand) {
  std::vector<nab::core::word> out(n);
  for (auto& w : out) w = static_cast<nab::core::word>(rand.below(65536));
  return out;
}

result bench_clean_instance(int n, std::size_t words, bool pool_memory = true) {
  nab::core::session s({.g = nab::graph::complete(n), .f = 1,
                        .pool_memory = pool_memory},
                       nab::sim::fault_set(n));
  nab::rng rand(1);
  const auto input = random_words(words, rand);
  s.run_instance(input);  // warm-up: arena pages, channel plan, coding
  const std::uint64_t allocs_before = heap_allocs();
  auto [sec, iters] = measure([&] { s.run_instance(input); });
  result r{pool_memory ? "session_clean_instance" : "session_clean_instance_nopool",
           "n=" + std::to_string(n) + " L=" + std::to_string(16 * words), sec, iters};
  r.allocs_per_iter =
      static_cast<double>(heap_allocs() - allocs_before) / iters;
  return r;
}

result bench_instance_under_attack(int n) {
  // Dispute control mutates the session (convictions shrink G_k), so every
  // iteration needs a fresh session — but only the run_many call is timed,
  // matching the old google-benchmark Pause/ResumeTiming split.
  const auto t_start = clock_type::now();
  double measured = 0.0;
  int iters = 0;
  std::uint64_t measured_allocs = 0;
  do {
    nab::sim::fault_set faults(n, {1});
    nab::core::phase1_corruptor adv;
    nab::core::session s({.g = nab::graph::complete(n), .f = 1}, faults, &adv);
    nab::rng rand(2);
    const auto t0 = clock_type::now();
    const std::uint64_t a0 = heap_allocs();
    s.run_many(2, 64, rand);
    measured += seconds_since(t0);
    measured_allocs += heap_allocs() - a0;
    ++iters;
  } while (seconds_since(t_start) < 0.2 || iters < 3);
  result r{"session_with_dispute_control", "n=" + std::to_string(n),
           measured / iters, iters};
  r.allocs_per_iter = static_cast<double>(measured_allocs) / iters;
  return r;
}

/// Where an instance's wall time goes: the same clean-instance loop run
/// under an obs collector, reported as one row per depth-1 phase span
/// (phase1 / equality_check / flags on the clean path). The collector also
/// exercises the collection-on cost path, so a hot counter site showing up
/// here before sec/iter moves is the early warning.
std::vector<result> bench_phase_breakdown(int n, std::size_t words) {
  nab::core::session s({.g = nab::graph::complete(n), .f = 1},
                       nab::sim::fault_set(n));
  nab::rng rand(3);
  const auto input = random_words(words, rand);
  s.run_instance(input);  // warm-up: arena pages, channel plan, coding
  nab::obs::collector col;
  nab::obs::scoped_collector scope(&col);
  auto [sec, iters] = measure([&] { s.run_instance(input); });
  (void)sec;
  std::vector<result> rows;
  const std::string label =
      "n=" + std::to_string(n) + " L=" + std::to_string(16 * words);
  for (const auto& [phase, secs] : nab::runtime::wall_by_phase_of(col.spans()))
    rows.push_back({"session_phase/" + phase, label, secs / iters, iters});
  return rows;
}

/// One timed call — for the retired from-scratch reference paths, whose
/// per-iteration cost (seconds to minutes at frontier sizes) would dominate
/// the suite under the 0.2s/3-iteration loop.
template <typename Body>
std::pair<double, int> measure_once(Body&& body) {
  const auto t0 = clock_type::now();
  body();
  return {seconds_since(t0), 1};
}

/// The plan/route frontier shapes: hypercubes force real flow work (no
/// closed-form packing, emulated route pairs) and K_64 pins the
/// closed-form + all-direct fast paths.
nab::graph::digraph frontier_graph(const std::string& label) {
  if (label == "hypercube_d6") return nab::graph::hypercube(6, 2);
  if (label == "hypercube_d7") return nab::graph::hypercube(7, 2);
  return nab::graph::complete(64, 1);
}

result bench_pack(const std::string& label, bool reference) {
  const auto g = frontier_graph(label);
  const auto gamma =
      static_cast<int>(nab::graph::broadcast_mincut(g, 0));
  const auto [sec, iters] =
      reference ? measure_once([&] { nab::graph::pack_arborescences_reference(
                      g, 0, gamma); })
                : measure([&] { nab::graph::pack_arborescences(g, 0, gamma); });
  return {reference ? "pack_arborescences_reference" : "pack_arborescences",
          label, sec, iters};
}

result bench_build_routes(const std::string& label, bool reference) {
  const auto g = frontier_graph(label);
  const auto body = [&] {
    if (!reference) {
      nab::bb::channel_plan::build_routes(g, 1);
      return;
    }
    // The seed's shape: one cold node_disjoint_paths run per emulated pair.
    for (nab::graph::node_id u = 0; u < g.universe(); ++u)
      for (nab::graph::node_id v = 0; v < g.universe(); ++v)
        if (u != v && !g.has_edge(u, v))
          nab::graph::node_disjoint_paths(g, u, v, 3);
  };
  const auto [sec, iters] = reference ? measure_once(body) : measure(body);
  return {reference ? "build_routes_reference" : "build_routes", label, sec,
          iters};
}

result bench_bounds(int n) {
  const auto g = nab::graph::complete(n);
  auto [sec, iters] = measure([&] { nab::core::compute_bounds(g, 0, 1); });
  return {"capacity_bounds", "n=" + std::to_string(n), sec, iters};
}

result bench_certify(int n) {
  const auto g = nab::graph::complete(n, 2);
  const auto uk = nab::core::compute_uk(g, 1, nab::core::dispute_record{});
  const auto cs = nab::core::coding_scheme::generate(
      g, static_cast<int>(nab::core::compute_rho(uk)), 5);
  auto [sec, iters] = measure(
      [&] { nab::core::certify_coding(g, 1, nab::core::dispute_record{}, cs); });
  return {"theorem1_certification", "n=" + std::to_string(n), sec, iters};
}

}  // namespace

int main() {
  std::vector<result> results;
  for (auto [n, w] : {std::pair<int, std::size_t>{4, 64},
                      {5, 64},
                      {7, 64},
                      {5, 1024},
                      {5, 8192}})
    results.push_back(bench_clean_instance(n, w));
  // The unpooled heap path at the headline size — the arena's denominator.
  results.push_back(bench_clean_instance(7, 64, /*pool_memory=*/false));
  for (int n : {4, 5, 7}) results.push_back(bench_instance_under_attack(n));
  for (const result& r : bench_phase_breakdown(7, 64)) results.push_back(r);
  for (const char* shape : {"hypercube_d6", "hypercube_d7", "k64_complete"})
    results.push_back(bench_pack(shape, /*reference=*/false));
  // The d7 pack reference re-runs the from-scratch construction at
  // minutes-scale; d6 + K_64 document the before numbers.
  for (const char* shape : {"hypercube_d6", "k64_complete"})
    results.push_back(bench_pack(shape, /*reference=*/true));
  for (const char* shape : {"hypercube_d6", "hypercube_d7", "k64_complete"})
    results.push_back(bench_build_routes(shape, /*reference=*/false));
  for (const char* shape : {"hypercube_d6", "hypercube_d7"})
    results.push_back(bench_build_routes(shape, /*reference=*/true));
  for (int n : {4, 5, 6}) results.push_back(bench_bounds(n));
  for (int n : {4, 5, 6}) results.push_back(bench_certify(n));

  std::printf("%-34s %-16s %14s %8s %12s\n", "benchmark", "label", "sec/iter",
              "iters", "allocs/iter");
  for (const result& r : results) {
    std::printf("%-34s %-16s %14.6f %8d", r.name.c_str(), r.label.c_str(),
                r.sec_per_iter, r.iterations);
    if (r.allocs_per_iter >= 0)
      std::printf(" %12.0f", r.allocs_per_iter);
    std::printf("\n");
  }

  using nab::runtime::json;
  json runs = json::array();
  for (const result& r : results) {
    json j = json::object();
    j.set("name", json::str(r.name))
        .set("label", json::str(r.label))
        .set("sec_per_iter", json::num(r.sec_per_iter))
        .set("iterations", json::num(r.iterations));
    if (r.allocs_per_iter >= 0)
      j.set("allocs_per_iter", json::num(r.allocs_per_iter));
    runs.push(std::move(j));
  }
  json doc = json::object();
  doc.set("bench", json::str("micro_session")).set("runs", std::move(runs));
  const std::string path = "BENCH_micro_session.json";
  nab::runtime::write_json_file(path, doc);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
