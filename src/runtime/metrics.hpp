#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace nab::runtime {

/// Minimal insertion-ordered JSON value for the runtime's machine-readable
/// outputs (BENCH_runtime.json and friends). Deliberately tiny: objects keep
/// key insertion order and numbers print deterministically, so two sweeps
/// that measured the same values serialize to byte-identical files — the
/// property the `--jobs 1` vs `--jobs N` determinism contract is checked
/// against. Not a parser; the repo only ever *emits* JSON.
class json {
 public:
  json() : kind_(kind::null) {}

  static json object();
  static json array();
  static json str(std::string v);
  static json num(double v);
  static json num(std::int64_t v);
  static json num(std::uint64_t v) { return num(static_cast<std::int64_t>(v)); }
  static json num(int v) { return num(static_cast<std::int64_t>(v)); }
  static json boolean(bool v);

  /// Object member (insertion order preserved). Returns *this for chaining.
  json& set(std::string key, json value);
  /// Array element. Returns *this for chaining.
  json& push(json value);

  /// Serializes with 2-space indentation and a trailing newline at depth 0.
  std::string dump() const;

 private:
  enum class kind { null, object, array, string, number_int, number_real, boolean };

  void write(std::string& out, int depth) const;

  kind kind_;
  std::string string_;
  std::int64_t int_ = 0;
  double real_ = 0.0;
  bool bool_ = false;
  std::vector<std::pair<std::string, json>> members_;  // object
  std::vector<json> elements_;                         // array
};

/// Machine-set observability data riding along with a run_record: wall-clock
/// per phase, the scheduling-dependent cache/arena counters, and — when the
/// sweep ran with timeline capture — the raw span list. Everything in here
/// describes the machine and the jobs count, not the workload, so
/// `operator==` deliberately always returns true: the defaulted run_record
/// equality (the `--jobs 1` vs `--jobs N` determinism contract) compares
/// records as if this struct did not exist, the same way wall_seconds lives
/// outside the records entirely.
struct run_timing {
  /// Summed wall seconds of the run's depth-1 phase spans, keyed by span
  /// name and sorted (phase1, equality_check, flags, phase3, refresh_graph,
  /// plus any omega_cache fill the run happened to pay).
  std::vector<std::pair<std::string, double>> wall_by_phase;
  std::uint64_t cache_hits = 0;       ///< omega_cache hits this run observed
  std::uint64_t cache_misses = 0;     ///< misses this run paid for the fleet
  std::uint64_t arena_allocs = 0;     ///< arena allocations served
  std::uint64_t arena_pool_hits = 0;  ///< of which from a free list
  /// Full span list (nesting via parent/depth); captured only under
  /// fleet --timeline, empty otherwise.
  std::vector<obs::span_record> spans;

  bool operator==(const run_timing&) const { return true; }
};

/// Everything measured about one fleet run (one scenario executed end to
/// end: a full session of `instances` NAB instances). Plain data; equality
/// ignores nothing — wall-clock time is kept OUT of this struct (see
/// run_timing) so records are comparable across thread counts, and is
/// reported separately.
struct run_record {
  int run_index = 0;              ///< position in the expanded sweep
  std::string scenario;           ///< concrete scenario name (unique per sweep)
  std::string family;             ///< registry preset this expanded from
  std::uint64_t seed = 0;         ///< derived per-run seed actually used

  // Configuration echo (what was run, for offline analysis).
  std::string topology;
  int nodes = 0;
  int f = 0;
  std::string adversary;
  std::string propagation;
  std::string loss = "none";      ///< link-fault spec ("none" = perfect links)
  int instances = 0;
  std::uint64_t words = 0;
  std::vector<int> corrupt;       ///< corrupt node ids chosen for this run

  // Paper quantities of the first instance (G_1).
  std::int64_t gamma = 0;
  std::int64_t rho = 0;

  // Measured outcomes over the whole session.
  double sim_elapsed = 0.0;       ///< simulated time units
  std::uint64_t bits_broadcast = 0;
  double throughput = 0.0;        ///< bits / simulated time
  double tau_mean = 0.0;          ///< mean simulated duration per instance
  /// Simulated time per protocol phase, summed over the session's instance
  /// reports (0 for pipelined runs, which report no phases). Their sum is
  /// sim_elapsed up to floating-point association.
  double tau_phase1 = 0.0;
  double tau_equality_check = 0.0;
  double tau_flags = 0.0;
  double tau_phase3 = 0.0;
  /// Wire bits per protocol phase, summed the same way; together they are
  /// every bit the session put on a link.
  std::uint64_t bits_phase1 = 0;
  std::uint64_t bits_equality_check = 0;
  std::uint64_t bits_flags = 0;
  std::uint64_t bits_phase3 = 0;
  int dispute_phases = 0;
  int disputes = 0;               ///< distinct disputing pairs at session end
  int convictions = 0;
  int mismatch_instances = 0;
  int phase1_only_instances = 0;
  int default_outcome_instances = 0;
  /// Wire bits DC1's claim dissemination consumed across the session (0
  /// when no dispute phase ran) and how many (claimant, receiver) pairs
  /// needed the full-transcript retrieval fallback — the accounting the
  /// Theta(n^f) -> polynomial claim-traffic claim is asserted against.
  std::uint64_t dc1_claim_bits = 0;
  int dc1_fallbacks = 0;

  // Deterministic obs counters (src/obs): pure functions of the workload,
  // bit-identical across --jobs counts and pooled/unpooled sessions, so they
  // sit inside the defaulted operator== and the determinism contract covers
  // them. gf_ops is the headline sum the CI perf smoke asserts nonzero on
  // certified runs.
  std::uint64_t gf_ops = 0;              ///< sum of the four gf_* below
  std::uint64_t gf_axpy_words = 0;
  std::uint64_t gf_scale_words = 0;
  std::uint64_t gf_mul_ops = 0;
  std::uint64_t gf_rows_eliminated = 0;
  std::uint64_t cert_subgraphs = 0;
  std::uint64_t cert_loo_downdates = 0;  ///< rank downdates, one per member
  std::uint64_t cache_lookups = 0;       ///< deterministic companion of hit/miss
  std::uint64_t plan_safety_checks = 0;       ///< packer certificate validations
  std::uint64_t plan_flow_augmentations = 0;  ///< packer unit augmenting paths
  std::uint64_t route_pairs = 0;              ///< ordered pairs in the route table
  std::uint64_t route_flow_augmentations = 0; ///< route-builder augmenting paths
  std::uint64_t claim_echoes = 0;
  std::uint64_t claim_readys = 0;
  // Link-fault layer (sim/link_faults + the network ARQ loop): all zero on
  // perfect links and under the inert "zero" model.
  std::uint64_t link_drops = 0;               ///< transmissions erased
  std::uint64_t retransmits = 0;              ///< ARQ retransmissions paid
  std::uint64_t burst_spans = 0;              ///< good->bad chain transitions
  std::uint64_t retry_budget_exhaustions = 0; ///< messages degraded to missing

  // Invariant-margin gauges (minimum over the run, -1 = never exercised):
  // how much headroom the run kept before a quorum rule or the paper's
  // dispute bound would have failed. The scoring signal an adversary search
  // ranks runs by — smaller means closer to the edge.
  std::int64_t margin_quorum_slack = -1;
  std::int64_t margin_hold_surplus = -1;
  std::int64_t margin_dispute_headroom = -1;
  /// min over loss-affected messages of (retry budget - retries needed);
  /// -1 when no message ever needed a retry. 0 means some message exhausted
  /// its budget — the hunt's future statistical-axis scoring signal.
  std::int64_t margin_retry_headroom = -1;

  /// Machine-set timing data (excluded from operator== — see run_timing).
  run_timing timing;

  /// Per-link traffic matrix (universe x universe, row-major bits), filled
  /// only when the sweep ran with trace capture (fleet --trace); empty
  /// otherwise so BENCH_runtime.json stays byte-stable.
  std::vector<std::uint64_t> traffic;

  // Pipelined-propagation runs only (0 otherwise): Appendix-D pipe depth
  // and the measured pipelined-vs-sequential speedup.
  int pipeline_depth = 0;
  double pipeline_speedup = 0.0;

  // Paper invariants, asserted per run.
  bool agreement = true;          ///< all instances: honest outputs identical
  bool validity = true;           ///< all instances: honest source ==> input
  bool dispute_sound = true;      ///< every disputing pair touches a corrupt node
  bool conviction_sound = true;   ///< only corrupt nodes convicted
  bool dispute_bound = true;      ///< <= f(f+1) dispute-control executions

  bool ok() const {
    return agreement && validity && dispute_sound && conviction_sound && dispute_bound;
  }

  bool operator==(const run_record&) const = default;

  /// `include_timing` adds the run_timing fields (wall_seconds_by_phase and
  /// the machine counters) — the same keys the determinism CI strips, named
  /// with the wall_seconds prefix so one strip rule covers both layers.
  json to_json(bool include_timing = false) const;
};

/// Sweep-level aggregates, derived from the records.
struct sweep_summary {
  int runs = 0;
  int failed_runs = 0;            ///< runs with any invariant violated
  int total_instances = 0;
  int total_dispute_phases = 0;
  double min_throughput = 0.0;
  double mean_throughput = 0.0;
  double max_throughput = 0.0;
};

sweep_summary summarize(const std::vector<run_record>& records);

/// "0x"-prefixed 16-digit hex for a seed. Seeds are serialized as strings:
/// JSON numbers lose uint64 range (2^53 mantissa, int64 sign flip).
std::string hex_seed(std::uint64_t seed);

/// The canonical BENCH_runtime.json document: metadata + per-run records +
/// aggregate summary. Deterministic for fixed records; `wall_seconds` < 0
/// omits every wall-clock field (used by the determinism test).
/// `family_wall_seconds`, when non-null and wall_seconds >= 0, adds a
/// "wall_seconds_by_family" section (family name -> summed wall of its
/// runs) — the per-preset perf trajectory the ROADMAP tracks. Like
/// wall_seconds it describes the machine and jobs count, not the workload.
json sweep_document(const std::string& sweep_name, std::uint64_t base_seed, int jobs,
                    const std::vector<run_record>& records, double wall_seconds,
                    const std::map<std::string, double>* family_wall_seconds = nullptr);

/// The fleet --trace document: per-run sparse traffic matrices (one entry
/// per link that carried bits) from records captured with ambient traces.
/// Runs without traffic data are skipped. Deterministic for fixed records.
json trace_document(const std::string& sweep_name, std::uint64_t base_seed,
                    const std::vector<run_record>& records);

/// The fleet --timeline document: every captured span of every run as a
/// Chrome-trace / Perfetto "traceEvents" JSON (complete "X" events, ts/dur
/// in microseconds of wall time, one pid per run so runs render as separate
/// processes; sim-time bounds and span depth travel in args). Load with
/// chrome://tracing or https://ui.perfetto.dev. Runs captured without spans
/// are skipped.
json timeline_document(const std::string& sweep_name, std::uint64_t base_seed,
                       const std::vector<run_record>& records);

/// Aggregates each record's depth-1 spans into (phase name -> summed wall
/// seconds), sorted by name — the run_timing::wall_by_phase shape. Exposed
/// for the runner and tests.
std::vector<std::pair<std::string, double>> wall_by_phase_of(
    const std::vector<obs::span_record>& spans);

/// Writes `doc.dump()` to `path` (throws nab::error on I/O failure).
void write_json_file(const std::string& path, const json& doc);

}  // namespace nab::runtime
