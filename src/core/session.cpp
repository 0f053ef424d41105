#include "core/session.hpp"

#include <algorithm>

#include "bb/broadcast.hpp"
#include "core/certify.hpp"
#include "graph/connectivity.hpp"
#include "graph/maxflow.hpp"
#include "graph/tree_packing.hpp"
#include "obs/obs.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::core {

session::session(session_config cfg, const sim::fault_set& faults, nab_adversary* adv,
                 sim::run_arena* arena)
    : cfg_(std::move(cfg)), faults_(faults), adv_(adv), arena_(arena), gk_(cfg_.g) {
  const int n = cfg_.g.universe();
  if (cfg_.propagation == propagation_mode::pipelined)
    throw error("session: pipelined propagation is a whole-session schedule — "
                "use core::run_pipelined");
  if (n < 3 * cfg_.f + 1)
    throw error("session: n >= 3f+1 required (n=" + std::to_string(n) +
                ", f=" + std::to_string(cfg_.f) + ")");
  if (cfg_.f > 0 &&
      !omega_cache::instance().connectivity_at_least(cfg_.g, 2 * cfg_.f + 1))
    throw error("session: network connectivity must be at least 2f+1");
  NAB_ASSERT(cfg_.g.is_active(cfg_.source), "source must exist in G");
  NAB_ASSERT(faults_.universe() == n, "fault set universe mismatch");
  NAB_ASSERT(faults_.count() <= cfg_.f, "more corrupt nodes than the budget f");
}

void session::refresh_graph_state() {
  if (!dirty_) return;
  obs::scoped_span refresh_span("refresh_graph");
  // Everything refreshed here (analysis, coding matrices, per-source plans)
  // outlives the instance that triggered the refresh — keep it off the run
  // arena even when called from inside run_instance's ambient scope.
  sim::scoped_run_arena suspend_pooling(nullptr);
  per_source_.clear();
  analysis_ = omega_cache::instance().analyze(gk_, cfg_.f, record_);
  uk_ = analysis_->uk;
  rho_ = analysis_->rho;

  // Generate (and, if asked, certify) the shared coding matrices. Theorem 1
  // makes failure vanishingly unlikely; regeneration with a fresh seed is
  // the correct response when it does happen. When the rank checks would be
  // prohibitively large (rho_k scales with link capacities) we trust the
  // theorem instead of certifying. The estimate prices the certifier's one
  // elimination plus a corner rank per member; it is cached with the
  // analysis. Certification runs on the set-up worker count.
  bool certify = cfg_.certify;
  if (certify && analysis_->certify_cost > cfg_.certify_cost_limit)
    certify = false;
  for (int attempt = 0;; ++attempt) {
    {
      obs::scoped_span gen_span("coding_generate");
      coding_ = coding_scheme::generate(gk_, static_cast<int>(rho_),
                                        cfg_.coding_seed + coding_generation_);
    }
    ++coding_generation_;
    if (!certify) break;
    bool certified = false;
    {
      obs::scoped_span cert_span("certify");
      certified = certify_coding(gk_, cfg_.f, record_, coding_,
                                 omega_cache::instance().fill_jobs(gk_))
                      .ok;
    }
    if (certified) break;
    if (attempt >= 8)
      throw error("session: failed to certify coding matrices after 8 seeds — "
                  "U_k is likely too small for rho_k (see docs/PAPER_MAP.md, "
                  "\"Certification retries\")");
  }
  dirty_ = false;
}

const phase1_plan& session::source_state_for(graph::node_id source) {
  refresh_graph_state();
  auto it = per_source_.find(source);
  if (it == per_source_.end()) {
    // Plans are cached per-session (and process-wide in omega_cache) —
    // long-lived, so computed with pooling suspended like every other
    // cross-instance structure.
    sim::scoped_run_arena suspend_pooling(nullptr);
    auto plan = omega_cache::instance().plan_for(gk_, source);
    NAB_ASSERT(plan->gamma >= 1, "instance graph lost connectivity from the source");
    it = per_source_.emplace(source, std::move(plan)).first;
  }
  return *it->second;
}

bb::channel_plan& session::ensure_channels() {
  // The classical-BB sub-protocols (step 2.2 flags, Phase-3 claims) are
  // capacity-oblivious overhead: they run over the ORIGINAL network G, whose
  // connectivity >= 2f+1 guarantees the complete-graph emulation — G_k may
  // lose that property as disputed edges are dropped. Instance data phases
  // (1 and 2.1) remain restricted to G_k.
  if (!channels_) {
    // The plan persists across instances; its backbone must not come from
    // the per-instance arena (round payloads still do — reclaimed by the
    // instance epilogue below).
    sim::scoped_run_arena suspend_pooling(nullptr);
    channels_.emplace(cfg_.g, cfg_.f,
                      omega_cache::instance().channel_routes_for(cfg_.g, cfg_.f));
  }
  return *channels_;
}

graph::capacity_t session::next_gamma() { return source_state_for(cfg_.source).gamma; }

graph::capacity_t session::next_rho() {
  refresh_graph_state();
  return rho_;
}

instance_report session::run_instance(const std::vector<word>& input,
                                      graph::node_id source_override) {
  const graph::node_id source = source_override >= 0 ? source_override : cfg_.source;
  NAB_ASSERT(source >= 0 && source < cfg_.g.universe(), "source out of range");

  // Per-instance arena epoch: pooling is ambient for the instance body, and
  // the epilogue (also on early returns and exception unwinds, after every
  // in-scope container has died) reclaims the channel plan's round storage
  // and rewinds the arena. reset() aborts if anything is still live, which
  // is the use-after-reset guarantee the arena tests pin down.
  sim::scoped_run_arena ambient(cfg_.pool_memory ? &arena() : nullptr);
  struct arena_epoch {
    session* s;
    ~arena_epoch() {
      if (s->channels_) s->channels_->reclaim_round_storage();
      s->arena().reset();
    }
  } epoch{this};

  // Instance span: every phase span below nests under it. Declared after the
  // epoch guard so it closes (and its record is final) before the arena
  // rewinds. tau starts at 0 — each instance gets a fresh network clock.
  obs::scoped_span instance_span("instance", 0.0);

  instance_report report;
  report.index = stats_.instances;
  report.outputs.assign(static_cast<std::size_t>(gk_.universe()), {});

  // Special case 1: the source has been convicted — everyone already knows,
  // and agrees on the default (all-zero) value without communicating.
  if (!gk_.is_active(source)) {
    report.default_outcome = true;
    report.active_nodes = gk_.active_count();
    for (graph::node_id v : gk_.active_nodes())
      report.outputs[static_cast<std::size_t>(v)] =
          std::vector<word>(input.size(), 0);
    report.validity = true;  // source is faulty; validity is vacuous
    ++stats_.instances;
    stats_.bits_broadcast += 16 * input.size();
    return report;
  }

  const phase1_plan& st = source_state_for(source);
  report.active_nodes = gk_.active_count();
  report.gamma = st.gamma;
  report.uk = uk_;
  report.rho = rho_;

  if (adv_ != nullptr) {
    sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
    adv_->on_instance_begin(report.index, gk_);
  }

  // The physical network is always G: G_k only restricts which links the
  // protocol *uses* in Phases 1/2.1.
  sim::network net(cfg_.g);

  // ---- Phase 1: unreliable broadcast over the arborescence packing. ----
  phase1_result p1;
  {
    obs::scoped_span span("phase1", net.elapsed());
    p1 = run_phase1(net, gk_, faults_, source, input, st.trees, adv_,
                    cfg_.propagation);
    span.end_tau(net.elapsed());
  }
  report.time_phase1 = p1.time;
  report.bits_phase1 = net.total_bits();

  // Special case 2: with >= f nodes excluded, every remaining node is
  // fault-free and Phase 1 alone is reliable (Section 2).
  const int excluded = gk_.universe() - gk_.active_count();
  if (excluded >= cfg_.f) {
    report.phase1_only = true;
    for (graph::node_id v : gk_.active_nodes())
      report.outputs[static_cast<std::size_t>(v)] =
          p1.received[static_cast<std::size_t>(v)];
  } else {
    // ---- Phase 2, step 2.1: Equality Check with parameter rho_k. ----
    std::vector<value_vector> values(static_cast<std::size_t>(gk_.universe()));
    for (graph::node_id v : gk_.active_nodes())
      values[static_cast<std::size_t>(v)] = value_vector::reshape(
          p1.received[static_cast<std::size_t>(v)], static_cast<int>(rho_));
    equality_check_result ec;
    {
      obs::scoped_span span("equality_check", net.elapsed());
      ec = run_equality_check(net, gk_, faults_, coding_, values, adv_);
      span.end_tau(net.elapsed());
    }
    report.time_equality_check = ec.time;
    report.bits_equality_check = net.total_bits() - report.bits_phase1;

    // ---- Phase 2, step 2.2: classical BB of the 1-bit flags. ----
    std::vector<bool> flag_inputs(static_cast<std::size_t>(gk_.universe()), false);
    for (graph::node_id v : gk_.active_nodes()) {
      bool flag = ec.flags[static_cast<std::size_t>(v)];
      if (faults_.is_corrupt(v) && adv_ != nullptr) {
        sim::scoped_run_arena suspend_pooling(nullptr);  // stateful strategies
        flag = adv_->phase2_flag(v, flag);
      }
      flag_inputs[static_cast<std::size_t>(v)] = flag;
    }
    bb::flags_outcome flags;
    {
      obs::scoped_span span("flags", net.elapsed());
      flags = bb::broadcast_flags_phase_king(
          ensure_channels(), net, faults_, flag_inputs, cfg_.f, gk_.active_nodes(),
          adv_ != nullptr ? adv_->pk() : nullptr,
          adv_ != nullptr ? adv_->relay() : nullptr);
      span.end_tau(net.elapsed());
    }
    report.time_flags = flags.time;
    report.bits_flags =
        net.total_bits() - report.bits_phase1 - report.bits_equality_check;

    // All honest nodes hold identical agreed flags; read them off one.
    graph::node_id reader = -1;
    for (graph::node_id v : gk_.active_nodes())
      if (faults_.is_honest(v)) {
        reader = v;
        break;
      }
    NAB_ASSERT(reader >= 0, "no honest node in G_k");
    std::vector<bool> agreed_flags(static_cast<std::size_t>(gk_.universe()), false);
    bool any_mismatch = false;
    for (graph::node_id v : gk_.active_nodes()) {
      agreed_flags[static_cast<std::size_t>(v)] =
          flags.agreed[static_cast<std::size_t>(v)][static_cast<std::size_t>(reader)];
      any_mismatch = any_mismatch || agreed_flags[static_cast<std::size_t>(v)];
    }
    report.mismatch_announced = any_mismatch;

    if (!any_mismatch) {
      // Clean instance: everyone keeps the Phase-1 value.
      for (graph::node_id v : gk_.active_nodes())
        report.outputs[static_cast<std::size_t>(v)] =
            p1.received[static_cast<std::size_t>(v)];
    } else {
      // ---- Phase 3: dispute control. ----
      report.dispute_phase_run = true;
      ++stats_.dispute_phases;

      instance_context ctx;
      ctx.source = source;
      ctx.input = input;
      ctx.rho = static_cast<int>(rho_);
      ctx.trees = st.trees;
      ctx.coding = &coding_;
      ctx.truth.assign(static_cast<std::size_t>(gk_.universe()), node_claims{});
      for (graph::node_id v : gk_.active_nodes()) {
        node_claims merged = p1.truth[static_cast<std::size_t>(v)];
        merged.p2_sent = ec.truth[static_cast<std::size_t>(v)].p2_sent;
        merged.p2_received = ec.truth[static_cast<std::size_t>(v)].p2_received;
        ctx.truth[static_cast<std::size_t>(v)] = std::move(merged);
      }
      ctx.agreed_flags = agreed_flags;
      // Erasure-vs-tamper discrimination follows the network, not a config
      // bit: active exactly when the attached fault model can actually drop
      // (an inert zero-loss model changes nothing — the byte-identity guard).
      ctx.lossy_links = net.lossy();

      // The coding seed doubles as the digest-point seed: per-run shared
      // protocol state, exactly like the coding matrices.
      //
      // The BB sub-protocols get the *remaining* fault budget: every
      // convicted node is provably corrupt (conviction soundness) and
      // already removed from G_k, so at most f - |convicted| corrupt nodes
      // participate — and with n >= 3f+1 the shrunken G_k always satisfies
      // the collapsed backend's participants > 3f' precondition, which the
      // full f could not (n - c > 3(f - c) holds for every c >= 0; n - c >
      // 3f can fail after staggered convictions). DC4's cover bound keeps
      // the full f: honest pairs must stay coverable by all f corrupt
      // nodes, convicted or not.
      dispute_outcome dc;
      {
        obs::scoped_span span("phase3", net.elapsed());
        const int f_remaining =
            std::max(0, cfg_.f - static_cast<int>(record_.convicted().size()));
        dc = run_dispute_control(net, ensure_channels(), gk_, faults_,
                                 f_remaining, cfg_.f, ctx, record_, adv_,
                                 cfg_.claim_backend, cfg_.coding_seed);
        span.end_tau(net.elapsed());
      }
      report.time_phase3 = dc.time;
      report.bits_phase3 = net.total_bits() - report.bits_phase1 -
                           report.bits_equality_check - report.bits_flags;
      report.claim_bits = dc.claim_bits;
      report.claim_fallbacks = dc.claim_fallbacks;
      stats_.claim_bits += dc.claim_bits;
      stats_.claim_fallbacks += dc.claim_fallbacks;
      report.new_disputes = dc.new_disputes;
      report.newly_convicted = dc.newly_convicted;

      for (graph::node_id v : gk_.active_nodes())
        report.outputs[static_cast<std::size_t>(v)] = dc.agreed_value;

      // Compute G_{k+1}: drop convicted nodes and disputed edges.
      for (graph::node_id v : record_.convicted()) gk_.remove_node(v);
      for (const auto& [a, b] : record_.pairs()) gk_.remove_edge_pair(a, b);
      dirty_ = true;
    }
  }

  // Ground-truth evaluation of the BB properties for this instance.
  const std::vector<word>* agreed = nullptr;
  for (graph::node_id v : gk_.active_nodes()) {
    if (faults_.is_corrupt(v)) continue;
    const auto& out = report.outputs[static_cast<std::size_t>(v)];
    if (agreed == nullptr) {
      agreed = &out;
    } else if (out != *agreed) {
      report.agreement = false;
    }
  }
  if (faults_.is_honest(source) && agreed != nullptr && *agreed != input)
    report.validity = false;

  stats_.elapsed += net.elapsed();
  stats_.bits_broadcast += 16 * input.size();
  ++stats_.instances;
  instance_span.end_tau(net.elapsed());
  return report;
}

std::vector<instance_report> session::run_many(int q, std::size_t words_per_input,
                                               rng& rand, bool rotate_sources) {
  std::vector<instance_report> out;
  out.reserve(static_cast<std::size_t>(q));
  for (int i = 0; i < q; ++i) {
    std::vector<word> input(words_per_input);
    for (auto& w : input) w = static_cast<word>(rand.below(65536));
    graph::node_id source = -1;
    if (rotate_sources) {
      const auto active = gk_.active_nodes();
      source = active[static_cast<std::size_t>(i) % active.size()];
    }
    out.push_back(run_instance(input, source));
  }
  return out;
}

session_run run_session(session_config cfg, const sim::fault_set& faults,
                        nab_adversary* adv, int q, std::size_t words_per_input,
                        std::uint64_t seed, bool rotate_sources,
                        sim::run_arena* arena) {
  session s(std::move(cfg), faults, adv, arena);
  rng rand(seed);
  session_run out;
  out.reports = s.run_many(q, words_per_input, rand, rotate_sources);
  out.stats = s.stats();
  out.disputes = s.disputes();
  out.final_graph = s.current_graph();
  return out;
}

}  // namespace nab::core
