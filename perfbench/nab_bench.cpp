// The repository benchmark program: four seeded workloads over libnab's public
// entry points, both clocks (wall and simulated time), end to end and layer
// by layer. See perfbench/README.md for the workloads and every metric.
//
//   nab_bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Prints one header line (machine, build, configuration) and, as the last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits non-zero on any correctness failure.

#include <sched.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bb/broadcast.hpp"
#include "bb/channels.hpp"
#include "core/omega.hpp"
#include "core/omega_cache.hpp"
#include "core/session.hpp"
#include "gf/gf2_16.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "sim/network.hpp"
#include "util/heap_alloc_counter.hpp"
#include "util/rng.hpp"

namespace {

using namespace nab;
using clk = std::chrono::steady_clock;

double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

clk::time_point after_seconds(double s) {
  return clk::now() +
         std::chrono::duration_cast<clk::duration>(std::chrono::duration<double>(s));
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The best of several repetitions of an identical operation. On a shared
/// machine, neighbours slow whole stretches of a run by up to 2x. A median
/// follows them, while the best repetition stays within a few percent from
/// run to run: no repetition can do the work faster than the work allows.
double best(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::min_element(v.begin(), v.end());
}

/// Logs a timed sample set on stderr: its size, best and median, so a
/// reader can see how far contention pushed the typical repetition.
void log_samples(const std::string& what, const std::vector<double>& seconds) {
  std::fprintf(stderr, "%s: %zu samples, best %.2f ms, median %.2f ms\n", what.c_str(),
               seconds.size(), 1e3 * best(seconds), 1e3 * median(seconds));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// CPUs this process may run on (what `nproc` prints).
int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set since process start or the last reset_peak_rss().
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

/// Starts a new peak-RSS window: hands freed heap back to the kernel, then
/// resets the kernel's high-water mark to the current resident set.
void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< smallest length: one repetition of everything
};

/// Everything a run prints: the correctness tally and the metrics.
class result {
 public:
  /// Counts one checked operation; a failed check names itself on stderr.
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (!std::isfinite(metrics_[i].value)) std::snprintf(value, sizeof(value), "null");
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }
  bool correct() const { return failed_ == 0; }
  /// A metric reported earlier in this run (NaN when absent).
  double value(const std::string& name) const {
    for (const auto& m : metrics_)
      if (m.name == name) return m.value;
    return std::nan("");
  }

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
  };
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<entry> metrics_;
};

// ---------------------------------------------------------------------------
// Session set-up: the graphs, their pinned paper quantities, and the cold
// bring-up from an empty omega_cache.

/// One session configuration with the values the paper fixes for it. The
/// pins are pure functions of the graph (min cuts, |Omega_k|): a change
/// means a wrong answer, not a faster one.
struct graph_case {
  std::string label;
  graph::digraph g;
  int f = 1;
  std::uint64_t certify_limit = 1'000'000'000;
  graph::capacity_t gamma = 0;    ///< pinned gamma_1 (0 = not pinned)
  graph::capacity_t rho = 0;      ///< pinned rho_1 (0 = not pinned)
  std::uint64_t subgraphs = 0;    ///< pinned |Omega_1| (0 = not pinned)
  graph::node_id source = 0;
};

/// K_64 f=1 under the k64_complete gate: the leave-one-out certify path.
graph_case k64_case() {
  return {"k64", graph::complete(64), 1, 64'000'000'000, 63, 62, 64};
}
/// Q_6 f=2 under the hypercube_d6 gate: 2016 subgraphs, no leave-one-out.
graph_case q6f2_case() {
  return {"q6f2", graph::hypercube(6), 2, 4'000'000'000, 6, 4, 2016};
}
/// Q_6 f=1: the flag-bound steady state.
graph_case q6f1_case() {
  return {"q6f1", graph::hypercube(6), 1, 1'000'000'000, 6, 5, 64};
}
/// K_32 f=1: the bulk (Eq. 24 amortized) steady state.
graph_case k32_case() {
  return {"k32", graph::complete(32), 1, 1'000'000'000, 31, 30, 32};
}

core::session_config config_for(const graph_case& c) {
  core::session_config cfg;
  cfg.g = c.g;
  cfg.f = c.f;
  cfg.source = c.source;
  cfg.certify_cost_limit = c.certify_limit;
  cfg.flag_protocol = bb::bb_protocol::auto_select;
  cfg.claim_backend = bb::claim_backend::collapsed;
  return cfg;
}

/// Brings an honest session to its first instance: connectivity check,
/// Omega_k / U_k / rho_k, coding generation and certification, the source's
/// Phase-1 plan, and the classical-BB route table. Uses whatever the
/// omega_cache already holds (callers clear it for a cold set-up).
std::unique_ptr<core::session> bring_up(const graph_case& c) {
  auto s = std::make_unique<core::session>(config_for(c), sim::fault_set(c.g.universe()));
  s->next_gamma();
  s->next_rho();
  core::omega_cache::instance().channel_routes_for(c.g, c.f);
  return s;
}

/// Checks a brought-up session against the pins and the certification
/// gate: the session skips certification silently when the cached cost
/// estimate exceeds the limit, so a skip must fail here, not pass as a
/// speed-up.
void check_setup(const graph_case& c, core::session& s, result& out) {
  const auto analysis =
      core::omega_cache::instance().analyze(s.current_graph(), c.f, s.disputes());
  bool ok = analysis->certify_cost <= c.certify_limit;
  if (c.gamma != 0) ok = ok && s.next_gamma() == c.gamma;
  if (c.rho != 0) ok = ok && s.next_rho() == c.rho;
  if (c.subgraphs != 0) ok = ok && analysis->omega.size() == c.subgraphs;
  out.attempt(ok, c.label + " set-up: gamma=" + std::to_string(s.next_gamma()) +
                      " rho=" + std::to_string(s.next_rho()) +
                      " |omega|=" + std::to_string(analysis->omega.size()) +
                      " certify_cost=" + std::to_string(analysis->certify_cost) +
                      " limit=" + std::to_string(c.certify_limit));
}

/// Cold set-up of every case in `cases` (the cache is emptied once, before
/// the first). Returns the wall seconds per case; `sessions` receives the
/// brought-up sessions.
std::vector<double> cold_setup(const std::vector<graph_case>& cases, int jobs,
                               std::vector<std::unique_ptr<core::session>>& sessions) {
  auto& cache = core::omega_cache::instance();
  sessions.clear();
  cache.clear();
  cache.set_fill_parallelism(jobs);
  std::vector<double> walls;
  for (const graph_case& c : cases) {
    const auto t0 = clk::now();
    sessions.push_back(bring_up(c));
    walls.push_back(seconds_since(t0));
  }
  return walls;
}

/// Summed wall seconds of every span called `name`, and of its self time
/// (the span minus its direct children).
struct span_totals {
  double wall = 0.0;
  double self = 0.0;
};
span_totals span_sum(const std::vector<obs::span_record>& spans, const std::string& name) {
  span_totals t;
  for (const auto& s : spans) {
    if (s.name != name) continue;
    double children = 0.0;
    for (const auto& c : spans)
      if (c.parent == s.id) children += c.wall_end - c.wall_begin;
    t.wall += s.wall_end - s.wall_begin;
    t.self += s.wall_end - s.wall_begin - children;
  }
  return t;
}

/// Layer breakdown of one traced cold set-up of `cases`: the session's own
/// spans and counters, plus direct calls of each layer's entry point.
void traced_setup_layers(const std::vector<graph_case>& cases, int jobs, result& out) {
  obs::collector col;
  std::vector<std::unique_ptr<core::session>> sessions;
  std::vector<double> walls;
  {
    obs::scoped_collector scope(&col);
    walls = cold_setup(cases, jobs, sessions);
  }
  const double setup_wall = sum(walls);
  const auto& spans = col.spans();
  const double certify = span_sum(spans, "certify").wall;
  const double coding = span_sum(spans, "coding_generate").wall;
  const double omega_fill = span_sum(spans, "omega_cache/fill_analysis").wall;
  const double plan_fill = span_sum(spans, "omega_cache/fill_plan").wall;
  const double route_fill = span_sum(spans, "omega_cache/fill_routes").wall;
  const double conn_fill = span_sum(spans, "omega_cache/fill_connectivity").wall;
  double top_level = 0.0;
  for (const auto& s : spans)
    if (s.depth == 0) top_level += s.wall_end - s.wall_begin;

  // Per-graph certify spans, in case order. A session certifies once unless
  // its coding seed fails and it regenerates, which the check below counts.
  std::vector<double> certify_by_case;
  for (const auto& s : spans)
    if (s.name == "certify") certify_by_case.push_back(s.wall_end - s.wall_begin);
  double k64 = 0.0, q6f2 = 0.0;
  for (std::size_t i = 0; i < cases.size() && i < certify_by_case.size(); ++i) {
    if (cases[i].label == "k64") k64 = certify_by_case[i];
    if (cases[i].label == "q6f2") q6f2 = certify_by_case[i];
  }

  // Every case certifies (check_setup fails a skip), so the certifier must
  // have checked every member of every Omega_1.
  std::uint64_t expected_subgraphs = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    check_setup(cases[i], *sessions[i], out);
    expected_subgraphs += core::omega_cache::instance()
                              .analyze(cases[i].g, cases[i].f, sessions[i]->disputes())
                              ->omega.size();
  }
  const std::uint64_t subgraphs = col.value(obs::counter::cert_subgraphs);
  out.attempt(subgraphs == expected_subgraphs &&
                  certify_by_case.size() == cases.size(),
              "traced set-up: cert_subgraphs=" + std::to_string(subgraphs) +
                  " expected " + std::to_string(expected_subgraphs) + ", " +
                  std::to_string(certify_by_case.size()) + " certify spans for " +
                  std::to_string(cases.size()) + " sessions");
  const double gf_words = static_cast<double>(col.value(obs::counter::gf_axpy_words) +
                                              col.value(obs::counter::gf_scale_words));

  out.metric("setup.traced_s", setup_wall, "s");
  out.metric("setup.layer_coverage",
             (certify + coding + omega_fill + plan_fill + route_fill + conn_fill) /
                 setup_wall,
             "ratio");
  out.metric("setup.refresh_graph_self_s", span_sum(spans, "refresh_graph").self, "s");
  out.metric("setup.unattributed_s", setup_wall - top_level, "s");
  out.metric("certify.s", certify, "s");
  out.metric("certify.k64_s", k64, "s");
  out.metric("certify.q6f2_s", q6f2, "s");
  out.metric("certify.gf_words", gf_words, "count");
  out.metric("certify.gf_words_per_s", certify > 0 ? gf_words / certify : 0.0, "1/s");
  out.metric("certify.subgraphs", static_cast<double>(subgraphs), "count");
  out.metric("certify.loo_downdates",
             static_cast<double>(col.value(obs::counter::cert_loo_downdates)), "count");
  out.metric("coding.generate_s", coding, "s");
  out.metric("omega.fill_s", omega_fill, "s");
  out.metric("graph.plan_fill_s", plan_fill, "s");
  out.metric("graph.route_fill_s", route_fill, "s");
  out.metric("graph.connectivity_fill_s", conn_fill, "s");
  out.metric("graph.plan_flow_augmentations",
             static_cast<double>(col.value(obs::counter::plan_flow_augmentations)),
             "count");
  out.metric("graph.route_flow_augmentations",
             static_cast<double>(col.value(obs::counter::route_flow_augmentations)),
             "count");

  // Direct, serial calls of each layer's entry point on the same graphs.
  double uk_s = 0.0, conn_s = 0.0, pack_s = 0.0, routes_s = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const graph_case& c = cases[i];
    core::session& s = *sessions[i];
    auto t0 = clk::now();
    const auto uk = core::compute_uk(c.g, c.f, s.disputes());
    uk_s += seconds_since(t0);
    out.attempt(core::compute_rho(uk) == s.next_rho(), c.label + ": compute_uk agrees");
    t0 = clk::now();
    const bool connected = graph::global_vertex_connectivity_at_least(c.g, 2 * c.f + 1);
    conn_s += seconds_since(t0);
    out.attempt(connected, c.label + ": connectivity >= 2f+1");
    t0 = clk::now();
    const auto trees = graph::pack_arborescences(c.g, c.source,
                                                 static_cast<int>(s.next_gamma()));
    pack_s += seconds_since(t0);
    out.attempt(trees.size() == static_cast<std::size_t>(s.next_gamma()),
                c.label + ": pack_arborescences returns gamma trees");
    t0 = clk::now();
    const auto routes = bb::channel_plan::build_routes(c.g, c.f);
    routes_s += seconds_since(t0);
    const auto filled = core::omega_cache::instance().channel_routes_for(c.g, c.f);
    out.attempt(routes.stats().pairs == filled->stats().pairs &&
                    routes.stats().flow_augmentations == filled->stats().flow_augmentations,
                c.label + ": serial build_routes matches the parallel route fill");
  }
  out.metric("omega.uk_s", uk_s, "s");
  out.metric("omega.subgraphs", static_cast<double>(expected_subgraphs), "count");
  out.metric("graph.connectivity_s", conn_s, "s");
  out.metric("graph.pack_s", pack_s, "s");
  out.metric("graph.routes_s", routes_s, "s");
}

// ---------------------------------------------------------------------------
// Warm instances.

/// Per-instance phase numbers read off "instance" spans and their direct
/// children (wall in ms, simulated time in tau units).
struct phase_samples {
  std::vector<double> instance_ms, self_ms, phase1_ms, eq_ms, flags_ms;
  std::vector<double> instance_tau, phase1_tau, eq_tau, flags_tau;
};

void add_instances(const std::vector<obs::span_record>& spans, phase_samples& p) {
  for (const auto& s : spans) {
    if (s.name != "instance") continue;
    double children = 0.0, p1 = 0.0, eq = 0.0, fl = 0.0, p1t = 0.0, eqt = 0.0, flt = 0.0;
    for (const auto& c : spans) {
      if (c.parent != s.id) continue;
      const double wall = c.wall_end - c.wall_begin, tau = c.tau_end - c.tau_begin;
      children += wall;
      if (c.name == "phase1") p1 += wall, p1t += tau;
      if (c.name == "equality_check") eq += wall, eqt += tau;
      if (c.name == "flags") fl += wall, flt += tau;
    }
    p.instance_ms.push_back(1e3 * (s.wall_end - s.wall_begin));
    p.self_ms.push_back(1e3 * (s.wall_end - s.wall_begin - children));
    p.phase1_ms.push_back(1e3 * p1);
    p.eq_ms.push_back(1e3 * eq);
    p.flags_ms.push_back(1e3 * fl);
    p.instance_tau.push_back(s.tau_end - s.tau_begin);
    p.phase1_tau.push_back(p1t);
    p.eq_tau.push_back(eqt);
    p.flags_tau.push_back(flt);
  }
}

/// Replaces every sample list by its mean: a sweep mixes instances of very
/// different shapes (phase-1-only, dispute phases, f = 0), so a median
/// would report one family's instance rather than the sweep's.
void to_means(phase_samples& p) {
  for (auto* v : {&p.instance_ms, &p.self_ms, &p.phase1_ms, &p.eq_ms, &p.flags_ms,
                  &p.instance_tau, &p.phase1_tau, &p.eq_tau, &p.flags_tau})
    if (!v->empty()) *v = {sum(*v) / static_cast<double>(v->size())};
}

/// The instance-level layer numbers every traced run reports (zero on a
/// workload that runs no instances of its own).
struct instance_layers {
  phase_samples phases;
  std::vector<double> arena_allocs, heap_allocs, gf_words;  ///< per instance
  double trace_overhead = 0.0;
};

void report(const instance_layers& l, result& out) {
  const auto med = [](const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); };
  const phase_samples& p = l.phases;
  const double inst_ms = med(p.instance_ms), inst_tau = med(p.instance_tau);
  out.metric("instance.ms", inst_ms, "ms");
  out.metric("instance.self_ms", med(p.self_ms), "ms");
  out.metric("phase1.ms", med(p.phase1_ms), "ms");
  out.metric("phase1.tau", med(p.phase1_tau), "tau");
  out.metric("equality_check.ms", med(p.eq_ms), "ms");
  out.metric("equality_check.tau", med(p.eq_tau), "tau");
  out.metric("equality_check.gf_words", med(l.gf_words), "count");
  out.metric("flags.ms", med(p.flags_ms), "ms");
  out.metric("flags.tau", med(p.flags_tau), "tau");
  out.metric("flags.tau_share", inst_tau > 0 ? med(p.flags_tau) / inst_tau : 0.0, "ratio");
  out.metric("flags.wall_share", inst_ms > 0 ? med(p.flags_ms) / inst_ms : 0.0, "ratio");
  out.metric("sim.arena_allocs_per_instance", med(l.arena_allocs), "count");
  out.metric("sim.heap_allocs_per_instance", med(l.heap_allocs), "count");
  out.metric("trace_overhead_frac", l.trace_overhead, "ratio");
}

/// What one session's warm window measured and validated.
struct instance_window {
  std::vector<double> wall;         ///< seconds per untraced instance
  std::vector<double> traced_wall;  ///< seconds per traced instance
  double tau = -1.0, tau_phase1 = 0.0, tau_eq = 0.0, tau_flags = 0.0;
  double bits = 0.0;
  int instances = 0;
};

std::vector<std::vector<core::word>> make_inputs(std::size_t count, std::size_t words,
                                                 std::uint64_t seed) {
  rng rand(seed);
  std::vector<std::vector<core::word>> inputs(count, std::vector<core::word>(words));
  for (auto& in : inputs)
    for (auto& w : in) w = static_cast<core::word>(rand.below(65536));
  return inputs;
}

/// Validates one honest instance report: agreement, validity, no mismatch,
/// and simulated time identical to every earlier instance of the window
/// (honest tau is a pure function of the graph and L).
void check_instance(const std::string& label, const core::instance_report& r,
                    instance_window& w, result& out) {
  bool ok = r.agreement && r.validity && !r.mismatch_announced && !r.dispute_phase_run;
  if (w.tau < 0) {
    w.tau = r.total_time();
    w.tau_phase1 = r.time_phase1;
    w.tau_eq = r.time_equality_check;
    w.tau_flags = r.time_flags;
  } else {
    ok = ok && r.total_time() == w.tau && r.time_phase1 == w.tau_phase1 &&
         r.time_equality_check == w.tau_eq && r.time_flags == w.tau_flags;
  }
  out.attempt(ok, label + " instance " + std::to_string(r.index) +
                      ": agreement/validity/tau (tau=" + std::to_string(r.total_time()) +
                      ", first " + std::to_string(w.tau) + ")");
}

/// Runs warm instances on `s` until `deadline` (at least `min_count`, at
/// most `max_count`). With `layers`, every other instance runs under a
/// collector and feeds the per-phase layer numbers; the rest stay untraced
/// (they alone set the end-to-end rate).
void run_window(const graph_case& c, core::session& s,
                const std::vector<std::vector<core::word>>& inputs,
                clk::time_point deadline, int min_count, int max_count,
                instance_layers* layers, instance_window& w, result& out) {
  obs::collector col;
  for (int i = 0; i < max_count && (i < min_count || clk::now() < deadline); ++i) {
    const auto& input = inputs[static_cast<std::size_t>(i) % inputs.size()];
    core::instance_report r;
    if (layers != nullptr && i % 2 == 1) {
      col.reset();
      const auto t0 = clk::now();
      {
        obs::scoped_collector scope(&col);
        r = s.run_instance(input);
      }
      w.traced_wall.push_back(seconds_since(t0));
      add_instances(col.spans(), layers->phases);
      layers->arena_allocs.push_back(
          static_cast<double>(col.value(obs::counter::arena_allocs)));
      layers->gf_words.push_back(static_cast<double>(
          col.value(obs::counter::gf_axpy_words) + col.value(obs::counter::gf_scale_words) +
          col.value(obs::counter::gf_mul_ops)));
    } else {
      const std::uint64_t allocs0 = util::heap_allocs();
      const auto t0 = clk::now();
      r = s.run_instance(input);
      w.wall.push_back(seconds_since(t0));
      if (layers != nullptr)
        layers->heap_allocs.push_back(static_cast<double>(util::heap_allocs() - allocs0));
    }
    check_instance(c.label, r, w, out);
    w.bits += 16.0 * static_cast<double>(input.size());
    ++w.instances;
  }
}

/// Simulated throughput of the window over the paper's gamma rho / (gamma +
/// rho) rate for the session's next instance, checked against the bound:
/// Phase 1 alone needs L/gamma and the equality check L/rho, so no correct
/// accounting can beat it.
double bound_frac(const graph_case& c, core::session& s, const instance_window& w,
                  result& out) {
  const double gamma = static_cast<double>(s.next_gamma());
  const double rho = static_cast<double>(s.next_rho());
  const double per_instance_bits = w.bits / w.instances;
  const double frac = (per_instance_bits / w.tau) / (gamma * rho / (gamma + rho));
  out.attempt(frac > 0.0 && frac <= 1.0 + 1e-9,
              c.label + ": 0 < bound_frac <= 1 (got " + std::to_string(frac) + ")");
  return frac;
}

// ---------------------------------------------------------------------------
// Layer probes that need no session.

/// gf2_16::axpy throughput over `rows` rows of `row_words` words: each pass
/// eliminates one pivot row into every row, like one Gauss-Jordan step. GB/s
/// counts 2 bytes per word presented (the gf_axpy_words convention).
double axpy_gbps(std::size_t rows, std::size_t row_words, double seconds,
                 std::uint64_t seed) {
  rng rand(seed);
  std::vector<core::word> m(rows * row_words), pivot(row_words);
  for (auto& x : m) x = static_cast<core::word>(rand.below(65536));
  for (auto& x : pivot) x = static_cast<core::word>(rand.below(65536));
  std::vector<double> rates;
  const auto end = after_seconds(seconds);
  while (rates.size() < 5 || clk::now() < end) {
    const auto t0 = clk::now();
    std::size_t words = 0;
    do {
      for (std::size_t r = 0; r < rows; ++r) {
        gf::gf2_16::axpy(m.data() + r * row_words, pivot.data(),
                         static_cast<core::word>(1 + rand.below(65535)), row_words);
        words += row_words;
      }
    } while (words < (std::size_t{1} << 24));
    rates.push_back(2.0 * static_cast<double>(words) / seconds_since(t0) / 1e9);
  }
  return median(rates);
}

/// Direct broadcast_flags_phase_king calls on Q_6 f=1, every node
/// broadcasting an honest 0 flag.
double flags_call_ms(int calls, result& out) {
  const graph::digraph g = graph::hypercube(6);
  const int f = 1;
  bb::channel_plan plan(g, f, core::omega_cache::instance().channel_routes_for(g, f));
  const sim::fault_set faults(g.universe());
  const std::vector<bool> flags(static_cast<std::size_t>(g.universe()), false);
  const auto sources = g.active_nodes();
  std::vector<double> ms;
  for (int i = 0; i < calls; ++i) {
    sim::network net(g);
    const auto t0 = clk::now();
    const bb::flags_outcome o =
        bb::broadcast_flags_phase_king(plan, net, faults, flags, f, sources);
    ms.push_back(1e3 * seconds_since(t0));
    bool ok = o.time > 0.0;
    for (auto v : sources)
      for (auto u : sources)
        ok = ok && !o.agreed[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)];
    out.attempt(ok, "direct phase-king flags: every node decides 0 for every source");
    plan.reclaim_round_storage();
  }
  return median(ms);
}

void probe_layers(const options& o, result& out) {
  const double cold = axpy_gbps(4096, 4096, o.smoke ? 0.05 : 0.5, o.seed);
  out.metric("gf.axpy_gbps_hot", axpy_gbps(2, 4096, o.smoke ? 0.05 : 0.3, o.seed), "GB/s");
  // 4096 rows x 4096 words = 32 MiB, the size of K_64's check matrix.
  out.metric("gf.axpy_gbps_cold", cold, "GB/s");
  const double certify_gbps =
      2.0 * out.value("certify.gf_words") / out.value("certify.s") / 1e9;
  out.metric("certify.roofline_frac", certify_gbps / cold, "ratio");
  out.metric("bb.flags_call_ms", flags_call_ms(o.smoke ? 1 : 5, out), "ms");
}

/// The sweep-level layer numbers every traced run reports (zero on a
/// workload without a sweep).
struct sweep_layers {
  double sweep_s = 0, phase3_ms = 0, fill_s = 0, hit_ratio = 0, busy = 0, critical = 0;
  double dispute_phases = 0, convictions = 0, claim_bits = 0, claim_fallbacks = 0;
  double drops = 0, retransmits = 0, exhaustions = 0;
};

void report(const sweep_layers& l, result& out) {
  out.metric("runtime.sweep_s", l.sweep_s, "s");
  out.metric("runtime.busy_frac", l.busy, "ratio");
  out.metric("runtime.critical_path_frac", l.critical, "ratio");
  out.metric("phase3.ms", l.phase3_ms, "ms");
  out.metric("dispute.phases", l.dispute_phases, "count");
  out.metric("dispute.convictions", l.convictions, "count");
  out.metric("claim.bits", l.claim_bits, "count");
  out.metric("claim.fallbacks", l.claim_fallbacks, "count");
  out.metric("sim.link_drops", l.drops, "count");
  out.metric("sim.retransmits", l.retransmits, "count");
  out.metric("sim.retry_exhaustions", l.exhaustions, "count");
  out.metric("omega_cache.fill_s", l.fill_s, "s");
  out.metric("omega_cache.hit_ratio", l.hit_ratio, "ratio");
}

// ---------------------------------------------------------------------------
// Workloads.

/// Several cold bring-ups of `cases`, each validated; returns the median
/// total wall and leaves the last repetition's sessions in `sessions`.
double repeated_setup(const std::vector<graph_case>& cases, int jobs, int reps,
                      std::vector<std::unique_ptr<core::session>>& sessions,
                      result& out) {
  std::vector<double> totals;
  for (int r = 0; r < reps; ++r) {
    totals.push_back(sum(cold_setup(cases, jobs, sessions)));
    for (std::size_t i = 0; i < cases.size(); ++i) check_setup(cases[i], *sessions[i], out);
  }
  return median(totals);
}

/// cold_setup: K_64 f=1 then Q_6 f=2 from an empty cache, twice. Warm K_64
/// instances follow each set-up, so the rate's samples spread over the whole
/// run. Q_6 f=2 runs two instances per set-up, for the checks and the bound:
/// its phase-king flags at f = 2 swing by 2x under contention, which the
/// rate cannot afford.
void cold_setup_workload(const options& o, int jobs, result& out) {
  const std::vector<graph_case> cases = {k64_case(), q6f2_case()};
  // A traced run reports no end-to-end metric, so one set-up serves it.
  const int reps = o.smoke || o.trace ? 1 : 2;
  std::vector<std::unique_ptr<core::session>> sessions;
  std::vector<double> setups;
  std::vector<instance_window> windows(cases.size());
  instance_layers layers;
  for (int r = 0; r < reps; ++r) {
    setups.push_back(sum(cold_setup(cases, jobs, sessions)));
    for (std::size_t i = 0; i < cases.size(); ++i) {
      check_setup(cases[i], *sessions[i], out);
      const auto inputs = make_inputs(4, 64, runtime::splitmix64(o.seed ^ (0xc01dULL + i)));
      sessions[i]->run_instance(inputs[0]);  // warm-up: channel plan, arena pages
      const bool rated = i == 0;
      run_window(cases[i], *sessions[i], inputs, after_seconds(o.seconds / reps),
                 rated && !o.smoke ? 6 : 2, rated && !o.smoke ? 1'000'000 : 2,
                 rated && o.trace ? &layers : nullptr, windows[i], out);
    }
  }
  out.metric("setup_s", median(setups), "s");

  double frac = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    log_samples(cases[i].label + " instances", windows[i].wall);
    frac += bound_frac(cases[i], *sessions[i], windows[i], out) /
            static_cast<double>(cases.size());
  }
  const instance_window& k64 = windows.front();
  out.metric("instances_per_s", 1.0 / best(k64.wall), "1/s");
  out.metric("bound_frac", frac, "ratio");
  if (!o.trace) return;
  layers.trace_overhead = best(k64.traced_wall) / best(k64.wall) - 1.0;
  report(layers, out);
  report(sweep_layers{}, out);
  traced_setup_layers(cases, jobs, out);
}

/// steady_flags / steady_bulk: one honest session, set up cold several
/// times, then warm instances for the whole window.
void steady_workload(const options& o, int jobs, const graph_case& c, std::size_t words,
                     result& out) {
  std::vector<std::unique_ptr<core::session>> sessions;
  out.metric("setup_s", repeated_setup({c}, jobs, o.smoke ? 1 : 9, sessions, out), "s");
  core::session& s = *sessions.front();
  const auto inputs = make_inputs(8, words, runtime::splitmix64(o.seed ^ 0x5eedf00dULL));
  s.run_instance(inputs[0]);  // warm-up: channel plan, arena pages

  instance_layers layers;
  instance_window w;
  run_window(c, s, inputs, after_seconds(o.seconds), o.smoke ? 2 : 10,
             o.smoke ? 2 : 1'000'000, o.trace ? &layers : nullptr, w, out);
  log_samples(c.label + " instances", w.wall);
  out.metric("instances_per_s", 1.0 / best(w.wall), "1/s");
  out.metric("bound_frac", bound_frac(c, s, w, out), "ratio");
  if (!o.trace) return;
  layers.trace_overhead = best(w.traced_wall) / best(w.wall) - 1.0;
  report(layers, out);
  report(sweep_layers{}, out);
  traced_setup_layers({c}, jobs, out);
}

/// The 25 registry families of the mixed sweep: every preset except the
/// three frontier ones (k64_complete, hypercube_d6, hypercube_d7), whose
/// set-up cold_setup measures on its own.
const char* const kSweepFamilies =
    "fig1,fig2,complete,complete-f2,ring,random-regular,hypercube,clustered-wan,"
    "k16_dense,hypercube_d5,wan_5cluster,k64_dense,capacity-skew,ablation-length,"
    "ablation-propagation,ablation-claims,ablation-flags,hunted_k7_quorum,"
    "hunted_k7_hold,hunted_k9_quorum,hunted_k9_hold,lossy_k7,lossy_hypercube,"
    "lossy_wan,rotating-sources";

/// The sweep's set-up: one session per distinct deterministic topology (with
/// its f, source and certify gate). Random topologies are drawn per run
/// seed inside the sweep, and f = 0 runs need no set-up of their own.
std::vector<graph_case> sweep_setup_cases(const std::vector<runtime::scenario>& sweep) {
  using tk = runtime::topology_kind;
  std::vector<graph_case> cases;
  std::vector<const runtime::scenario*> seen;
  for (const auto& s : sweep) {
    if (s.topology.kind == tk::erdos_renyi || s.topology.kind == tk::random_regular ||
        s.f < 1)
      continue;
    const bool dup = std::any_of(seen.begin(), seen.end(), [&](const auto* t) {
      return t->topology == s.topology && t->f == s.f && t->source == s.source &&
             t->certify_cost_limit == s.certify_cost_limit;
    });
    if (dup) continue;
    seen.push_back(&s);
    rng unused(0);
    graph_case c;
    c.label = s.name;
    c.g = runtime::build_topology(s.topology, unused);
    c.f = s.f;
    c.certify_limit = s.certify_cost_limit;
    c.source = s.source;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// sweep_mixed: the set-up of the sweep's deterministic topologies several
/// times, then whole sweeps from a cold cache for the window. Every run
/// must hold the paper invariants and every repetition must reproduce the
/// first one's deterministic fields.
void sweep_workload(const options& o, int jobs, result& out) {
  const auto sweep = runtime::select_scenarios(kSweepFamilies);
  const auto setup_cases = sweep_setup_cases(sweep);
  {
    std::vector<std::unique_ptr<core::session>> sessions;
    out.metric("setup_s", repeated_setup(setup_cases, jobs, o.smoke ? 1 : 5, sessions, out),
               "s");
  }

  const std::uint64_t sweep_seed = runtime::splitmix64(o.seed ^ 0x5a5eedULL);
  std::vector<runtime::run_record> first;
  std::vector<double> walls, traced_walls, run_walls, rss;
  sweep_layers layers;
  instance_layers inst;
  const auto deadline = after_seconds(o.seconds);
  // The median needs five sweeps even when a sweep takes a quarter of the
  // window; a traced run alternates untraced and traced sweeps and needs both.
  const int min_sweeps = (o.smoke ? 1 : 5) + (o.trace ? 1 : 0);
  for (int k = 0; k < min_sweeps || clk::now() < deadline; ++k) {
    const bool spans = o.trace && k % 2 == 1;
    core::omega_cache::instance().clear();
    reset_peak_rss();
    std::vector<double> run_walls_k;
    const std::uint64_t allocs0 = util::heap_allocs();
    const auto t0 = clk::now();
    auto records =
        runtime::run_sweep(sweep, sweep_seed, jobs, {}, &run_walls_k, false, spans);
    const double wall = seconds_since(t0);
    const double allocs = static_cast<double>(util::heap_allocs() - allocs0);
    (spans ? traced_walls : walls).push_back(wall);
    if (!spans) rss.push_back(peak_rss_mib());
    for (const auto& r : records)
      out.attempt(r.ok(), "sweep run " + r.scenario + ": paper invariants");
    if (first.empty()) {
      first = std::move(records);
      run_walls = run_walls_k;
      continue;
    }
    out.attempt(records == first, "sweep repetition " + std::to_string(k) +
                                      ": deterministic fields identical to the first");
    if (!spans || !inst.phases.instance_ms.empty()) continue;
    // Layer numbers from the first traced sweep.
    const auto st = core::omega_cache::instance().stats();
    const double hits = static_cast<double>(st.analysis_hits + st.plan_hits +
                                            st.connectivity_hits + st.route_hits);
    const double misses = static_cast<double>(st.analysis_misses + st.plan_misses +
                                              st.connectivity_misses + st.route_misses);
    layers.hit_ratio = hits / (hits + misses);
    double instances = 0;
    for (const auto& r : records) {
      for (const char* fill : {"omega_cache/fill_analysis", "omega_cache/fill_plan",
                               "omega_cache/fill_routes", "omega_cache/fill_connectivity"})
        layers.fill_s += span_sum(r.timing.spans, fill).wall;
      layers.phase3_ms += 1e3 * span_sum(r.timing.spans, "phase3").wall;
      add_instances(r.timing.spans, inst.phases);
      instances += r.instances;
    }
    to_means(inst.phases);
    // Whole-run counters per instance (set-up work included).
    double arena = 0, gf = 0;
    for (const auto& r : records) {
      arena += static_cast<double>(r.timing.arena_allocs);
      gf += static_cast<double>(r.gf_ops - r.gf_rows_eliminated);
    }
    inst.arena_allocs = {arena / instances};
    inst.gf_words = {gf / instances};
    inst.heap_allocs = {allocs / instances};
  }

  int instances = 0, framed = 0;
  double frac = 0.0;
  for (const auto& r : first) {
    instances += r.instances;
    if (r.gamma > 0 && r.rho > 0 && r.sim_elapsed > 0) {
      const double g = static_cast<double>(r.gamma), rho = static_cast<double>(r.rho);
      frac += r.throughput / (g * rho / (g + rho));
      ++framed;
    }
  }
  // Unlike one instance, a sweep averages 80 runs over all cores, so its
  // wall spreads narrowly around the typical value: the median of a few
  // sweeps is steadier than their best.
  log_samples("sweeps", walls);
  const double sweep_s = median(walls);
  out.metric("instances_per_s", instances / sweep_s, "1/s");
  out.metric("bound_frac", frac / framed, "ratio");
  // Which runs happen to overlap decides a sweep's peak (a few sweeps peak
  // 30% above the rest); the leanest sweep is what the sweep itself needs.
  out.metric("peak_rss_mb", best(rss), "MiB");
  if (!o.trace) return;

  for (const auto& r : first) {
    layers.dispute_phases += r.dispute_phases;
    layers.convictions += r.convictions;
    layers.claim_bits += static_cast<double>(r.dc1_claim_bits);
    layers.claim_fallbacks += r.dc1_fallbacks;
    layers.drops += static_cast<double>(r.link_drops);
    layers.retransmits += static_cast<double>(r.retransmits);
    layers.exhaustions += static_cast<double>(r.retry_budget_exhaustions);
  }
  layers.sweep_s = sweep_s;
  layers.busy = sum(run_walls) / (jobs * walls.front());
  layers.critical = *std::max_element(run_walls.begin(), run_walls.end()) / walls.front();
  inst.trace_overhead = median(traced_walls) / sweep_s - 1.0;
  report(inst, out);
  report(layers, out);
  traced_setup_layers(setup_cases, jobs, out);
}

// ---------------------------------------------------------------------------
// Header and command line.

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    if (const char* colon = std::strchr(line, ':')) {
      model = colon + 1;
      model.erase(0, model.find_first_not_of(' '));
      model.erase(model.find_last_not_of("\n ") + 1);
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// An unoptimized or sanitized build cannot produce a valid measurement.
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool build_valid() { return kOptimized && std::strcmp(sanitizer(), "none") == 0; }

void print_header(const options& o, int jobs) {
  std::printf(
      "{\"header\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s, \"cpu_model\": \"%s\", \"nproc\": %d, \"jobs\": %d, "
      "\"fill_parallelism\": %d, \"gf_backend\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"sanitizer\": \"%s\", "
      "\"build_valid\": %s}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.smoke ? "true" : "false", cpu_model().c_str(), cpu_count(), jobs,
      jobs, gf::gf2_16::backend_name(gf::gf2_16::backend()),
#if defined(__clang__)
      "clang " __clang_version__,
#else
      "gcc " __VERSION__,
#endif
      PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false", sanitizer(),
      build_valid() ? "true" : "false");
  std::fflush(stdout);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "nab_bench: %s\nusage: nab_bench --workload "
               "cold_setup|steady_flags|steady_bulk|sweep_mixed --seed N --seconds S "
               "--trace 0|1 [--smoke]\n",
               why.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = value() == "1";
      else if (a == "--smoke") o.smoke = true;
      else usage("unknown flag " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  const int jobs = cpu_count();
  print_header(o, jobs);

  result out;
  out.attempt(build_valid(), "build is optimized and unsanitized");
  try {
    if (o.workload == "cold_setup") {
      cold_setup_workload(o, jobs, out);
    } else if (o.workload == "steady_flags") {
      steady_workload(o, jobs, q6f1_case(), 64, out);
    } else if (o.workload == "steady_bulk") {
      steady_workload(o, jobs, k32_case(), 16384, out);
    } else if (o.workload == "sweep_mixed") {
      sweep_workload(o, jobs, out);
    } else {
      usage("unknown workload " + o.workload);
    }
    if (o.trace) probe_layers(o, out);
  } catch (const std::exception& e) {
    out.attempt(false, std::string("exception: ") + e.what());
  }
  // Whole-process peak, except where the workload reported a per-repetition one.
  if (std::isnan(out.value("peak_rss_mb"))) out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  std::printf("%s\n", out.json().c_str());
  return out.correct() ? 0 : 1;
}
