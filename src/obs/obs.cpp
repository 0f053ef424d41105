#include "obs/obs.hpp"

#include "util/assert.hpp"

namespace nab::obs {

const char* counter_name(counter c) {
  switch (c) {
    case counter::gf_axpy_words: return "gf_axpy_words";
    case counter::gf_scale_words: return "gf_scale_words";
    case counter::gf_mul_ops: return "gf_mul_ops";
    case counter::gf_rows_eliminated: return "gf_rows_eliminated";
    case counter::cert_subgraphs: return "cert_subgraphs";
    case counter::cert_loo_downdates: return "cert_loo_downdates";
    case counter::cache_lookups: return "cache_lookups";
    case counter::cache_hits: return "cache_hits";
    case counter::cache_misses: return "cache_misses";
    case counter::plan_safety_checks: return "plan_safety_checks";
    case counter::plan_flow_augmentations: return "plan_flow_augmentations";
    case counter::route_pairs: return "route_pairs";
    case counter::route_flow_augmentations: return "route_flow_augmentations";
    case counter::claim_echoes: return "claim_echoes";
    case counter::claim_readys: return "claim_readys";
    case counter::claim_fallbacks: return "claim_fallbacks";
    case counter::link_drops: return "link_drops";
    case counter::link_retransmits: return "retransmits";
    case counter::link_burst_spans: return "burst_spans";
    case counter::link_retry_exhaustions: return "retry_budget_exhaustions";
    case counter::arena_allocs: return "arena_allocs";
    case counter::arena_pool_hits: return "arena_pool_hits";
    case counter::count_: break;
  }
  return "unknown_counter";
}

const char* gauge_name(gauge g) {
  switch (g) {
    case gauge::quorum_slack: return "margin_quorum_slack";
    case gauge::hold_surplus: return "margin_hold_surplus";
    case gauge::dispute_headroom: return "margin_dispute_headroom";
    case gauge::retry_headroom: return "margin_retry_headroom";
    case gauge::count_: break;
  }
  return "unknown_gauge";
}

std::uint64_t behavior_signature(const collector& c) {
  std::uint64_t h = signature_seed;
  for (int i = 0; i < counter_count; ++i) {
    const auto ct = static_cast<counter>(i);
    if (ct == counter::cache_hits || ct == counter::cache_misses ||
        ct == counter::arena_allocs || ct == counter::arena_pool_hits)
      continue;  // machine set — scheduling-dependent
    h = signature_mix(h, c.value(ct));
  }
  for (int i = 0; i < gauge_count; ++i)
    h = signature_mix(h, static_cast<std::uint64_t>(
                             c.gauge_value(static_cast<gauge>(i))));
  return h;
}

collector::collector() : epoch_(std::chrono::steady_clock::now()) {
  gauges_.fill(gauge_unset);
}

double collector::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int collector::open_span(std::string name, double tau_begin) {
  span_record rec;
  rec.id = static_cast<int>(spans_.size());
  rec.parent = current_span();
  rec.depth = static_cast<int>(open_stack_.size());
  rec.name = std::move(name);
  rec.tau_begin = tau_begin;
  rec.tau_end = tau_begin;
  rec.wall_begin = now();
  rec.wall_end = rec.wall_begin;
  spans_.push_back(std::move(rec));
  open_stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void collector::close_span(int id, double tau_end) {
  NAB_ASSERT(!open_stack_.empty() && open_stack_.back() == id,
             "spans must close LIFO (innermost first)");
  open_stack_.pop_back();
  span_record& rec = spans_[static_cast<std::size_t>(id)];
  rec.tau_end = tau_end;
  rec.wall_end = now();
}

void collector::reset() {
  NAB_ASSERT(open_stack_.empty(), "collector reset with spans still open");
  counters_.fill(0);
  gauges_.fill(gauge_unset);
  spans_.clear();
}

namespace {
thread_local collector* ambient = nullptr;
}  // namespace

collector* ambient_collector() { return ambient; }

scoped_collector::scoped_collector(collector* c) : previous_(ambient) {
  ambient = c;
}

scoped_collector::~scoped_collector() { ambient = previous_; }

scoped_span::scoped_span(const char* name, double tau_begin)
    : col_(ambient_collector()), tau_end_(tau_begin) {
  if (col_ != nullptr) id_ = col_->open_span(name, tau_begin);
}

scoped_span::~scoped_span() {
  if (col_ != nullptr) col_->close_span(id_, tau_end_);
}

}  // namespace nab::obs
