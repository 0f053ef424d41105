// fleet: registry-driven parallel scenario sweeps — the successor to the
// ad-hoc per-topology loops that used to live in nabsim/capacity_planner.
// Expands named scenario families from the runtime registry into a concrete
// sweep, fans it out over a work-stealing shard pool, asserts the paper's
// invariants (agreement, validity, dispute soundness) on every run, and
// writes the machine-readable metrics to BENCH_runtime.json.
//
// Usage:
//   fleet --list                         show the preset catalog and exit
//   fleet [options]                      run a sweep
//   fleet --hunt [options]               coverage-guided adversary search
//
// Options (sweep):
//   --scenario NAMES  comma-separated family names, or "all" (default: all)
//   --jobs N          worker threads (default 1; results identical for any N)
//   --seed S          sweep base seed (default 1)
//   --json FILE       output path (default BENCH_runtime.json; "-" = none)
//   --trace FILE      capture per-run traffic matrices (sim ambient traces)
//                     and dump them to FILE as JSON (sparse link lists plus
//                     the per-run DC1 claim bytes — the communication-pattern
//                     analysis mode)
//   --timeline FILE   capture per-run phase spans (obs collectors) and dump
//                     them to FILE as Chrome-trace JSON — load in
//                     chrome://tracing or ui.perfetto.dev; one process per
//                     run, spans nested phase1/equality_check/flags/phase3
//                     down to the claim sub-rounds
//   --quiet           suppress the per-run progress lines
//
// Options (hunt — see docs/HUNT.md and runtime/hunt.hpp):
//   --hunt-families NAMES  families whose (topology, f) pairs become hunt
//                          contexts (default complete-f2,ablation-claims —
//                          the K_7/K_9 dispute presets)
//   --budget N             total genome evaluations (default 2000)
//   --population N         genomes per generation (default 12)
//   --hunt-words N         payload words per evaluation (default 16 — margins
//                          are size-oblivious, so evaluations stay cheap)
//   --hunt-instances N     instances per evaluation (0 = family default)
//   --hunt-corpus FILE     corpus output (default HUNT_corpus.json; "-" = none)
//   --jobs/--seed/--quiet  as above; the corpus is byte-identical for any
//                          --jobs value
//
// Every sweep ends with a per-phase rollup (top phases by wall time across
// the sweep, per family) built from the same obs spans. Flag parsing is
// strict (runtime/fleet_cli.hpp): unknown flags are errors naming the flag,
// never silently ignored.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/omega_cache.hpp"
#include "gf/gf2_16.hpp"
#include "runtime/runtime.hpp"

namespace {

void list_registry() {
  std::size_t total = 0;
  for (const nab::runtime::scenario_family& fam : nab::runtime::registry()) {
    const std::size_t count = fam.expand().size();
    total += count;
    std::printf("%-22s %3zu runs  %s\n", fam.name.c_str(), count,
                fam.description.c_str());
  }
  std::printf("%-22s %3zu runs\n", "total (=all)", total);
}

int run_hunt_mode(const nab::runtime::fleet_options& opt) {
  using namespace nab::runtime;
  hunt_config cfg;
  cfg.families = opt.hunt_families;
  cfg.seed = opt.seed;
  cfg.budget = opt.budget;
  cfg.population = opt.population;
  cfg.jobs = opt.jobs;
  cfg.words = opt.hunt_words;
  cfg.instances = opt.hunt_instances;

  std::printf("fleet: hunting %s, budget %d, population %d, %d job%s, seed %llu\n",
              cfg.families.c_str(), cfg.budget, cfg.population, cfg.jobs,
              cfg.jobs == 1 ? "" : "s",
              static_cast<unsigned long long>(cfg.seed));

  const auto t0 = std::chrono::steady_clock::now();
  const hunt_corpus corpus = run_hunt(
      cfg, opt.quiet ? std::function<void(const std::string&)>{}
                     : [](const std::string& line) {
                         std::printf("  %s\n", line.c_str());
                       });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf(
      "fleet: hunt done — %d evaluations, %zu champions, %zu novel behaviors, "
      "%d errors, %d invariant violations, wall %.2fs\n",
      corpus.evaluations, corpus.champions.size(), corpus.novel.size(),
      corpus.errors, corpus.violations, wall);
  for (const corpus_entry& e : corpus.champions)
    std::printf("  champion %-28s %-24s slack=%lld hold=%lld headroom=%lld  %s\n",
                e.context.c_str(), e.gauge.c_str(),
                static_cast<long long>(e.margin_quorum_slack),
                static_cast<long long>(e.margin_hold_surplus),
                static_cast<long long>(e.margin_dispute_headroom),
                e.genome.to_params().c_str());
  for (const corpus_entry& e : corpus.violators)
    std::printf("  VIOLATION %-28s run_index=%d  %s\n", e.context.c_str(),
                e.run_index, e.genome.to_params().c_str());

  if (opt.corpus_path != "-") {
    write_json_file(opt.corpus_path, corpus_document(corpus));
    std::printf("fleet: wrote %s\n", opt.corpus_path.c_str());
  }
  if (corpus.violations > 0) {
    std::fprintf(stderr,
                 "fleet: the hunt found %d paper-invariant violation(s) — "
                 "replay the violator genomes above\n",
                 corpus.violations);
    return 1;
  }
  return 0;
}

int run_sweep_mode(const nab::runtime::fleet_options& opt) {
  using namespace nab::runtime;
  std::vector<scenario> sweep = select_scenarios(opt.scenarios);
  // --loss overrides the link-fault axis of every selected scenario but
  // never their names: the zero-loss byte-identity guard diffs a --loss
  // zero sweep against a clean one record-for-record.
  if (!opt.loss.empty())
    for (scenario& s : sweep) s.loss = opt.loss;
  // The GF backend is machine state, not part of any record (records are
  // byte-identical across backends), so it is named here and nowhere else.
  std::printf("fleet: %zu runs (%s%s%s), %d job%s, seed %llu, gf backend %s\n",
              sweep.size(), opt.scenarios.c_str(),
              opt.loss.empty() ? "" : ", loss ", opt.loss.c_str(), opt.jobs,
              opt.jobs == 1 ? "" : "s", static_cast<unsigned long long>(opt.seed),
              nab::gf::gf2_16::backend_name(nab::gf::gf2_16::backend()));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> run_walls;
  const auto records = run_sweep(
      sweep, opt.seed, opt.jobs,
      [&](const run_record& r) {
        if (opt.quiet) return;
        std::printf("  [%3d] %-46s thpt=%8.3f disputes=%d convicted=%d %s\n",
                    r.run_index, r.scenario.c_str(), r.throughput, r.disputes,
                    r.convictions, r.ok() ? "ok" : "INVARIANT VIOLATED");
      },
      &run_walls, /*capture_traces=*/!opt.trace_path.empty(),
      /*capture_spans=*/!opt.timeline_path.empty());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::map<std::string, double> family_walls;
  for (std::size_t i = 0; i < sweep.size(); ++i)
    family_walls[sweep[i].family] += run_walls[i];

  const sweep_summary s = summarize(records);
  std::printf(
      "fleet: %d runs, %d instances, %d dispute phases, throughput "
      "min/mean/max = %.3f/%.3f/%.3f, wall %.2fs\n",
      s.runs, s.total_instances, s.total_dispute_phases, s.min_throughput,
      s.mean_throughput, s.max_throughput, wall);
  const auto cache = nab::core::omega_cache::instance().stats();
  std::printf(
      "fleet: omega_cache %llu/%llu analysis hits, %llu/%llu phase-1 plan hits\n",
      static_cast<unsigned long long>(cache.analysis_hits),
      static_cast<unsigned long long>(cache.analysis_hits + cache.analysis_misses),
      static_cast<unsigned long long>(cache.plan_hits),
      static_cast<unsigned long long>(cache.plan_hits + cache.plan_misses));

  // Per-family phase rollup: the top-3 phases by summed wall time across
  // the family's runs, from the per-run obs spans. Answers "where did the
  // sweep's time go" without opening the JSON.
  {
    std::map<std::string, std::map<std::string, double>> family_phases;
    for (const run_record& r : records)
      for (const auto& [phase, secs] : r.timing.wall_by_phase)
        family_phases[r.family][phase] += secs;
    std::printf("fleet: wall by phase (top 3 per family)\n");
    for (const auto& [family, phases] : family_phases) {
      std::vector<std::pair<std::string, double>> rows(phases.begin(),
                                                       phases.end());
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second : a.first < b.first;
      });
      std::string line;
      for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
        char cell[96];
        std::snprintf(cell, sizeof cell, "%s%s=%.3fs", i > 0 ? "  " : "",
                      rows[i].first.c_str(), rows[i].second);
        line += cell;
      }
      std::printf("  %-22s %s\n", family.c_str(), line.c_str());
    }
  }

  if (opt.json_path != "-") {
    write_json_file(opt.json_path, sweep_document(opt.scenarios, opt.seed,
                                                  opt.jobs, records, wall,
                                                  &family_walls));
    std::printf("fleet: wrote %s\n", opt.json_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    write_json_file(opt.trace_path,
                    trace_document(opt.scenarios, opt.seed, records));
    std::printf("fleet: wrote %s\n", opt.trace_path.c_str());
  }
  if (!opt.timeline_path.empty()) {
    write_json_file(opt.timeline_path,
                    timeline_document(opt.scenarios, opt.seed, records));
    std::printf("fleet: wrote %s\n", opt.timeline_path.c_str());
  }

  if (s.failed_runs > 0) {
    std::fprintf(stderr, "fleet: %d run(s) violated paper invariants\n",
                 s.failed_runs);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  nab::runtime::fleet_options opt;
  try {
    opt = nab::runtime::parse_fleet_args(
        std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), nab::runtime::fleet_usage().c_str());
    return 2;
  }

  if (opt.list) {
    list_registry();
    return 0;
  }
  try {
    return opt.hunt ? run_hunt_mode(opt) : run_sweep_mode(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    return 1;
  }
}
