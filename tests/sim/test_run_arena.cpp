// Unit tests for sim::run_arena (reset reuse, size-class pooling, alignment,
// header-routed deallocation) plus the allocation-count regression harness:
// a global operator-new interposition counter pins the heap-allocation
// budget of a clean K_7 session, the guard this PR's arena work (and every
// future change to the simulation hot path) is measured against.

#include "sim/run_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/session.hpp"
#include "graph/generators.hpp"
#include "sim/faults.hpp"
// Binary-wide operator-new interposition (counts every heap allocation this
// test binary makes; measurements take deltas around the measured region
// with no gtest assertions in between). Shared with bench_micro_session so
// both harnesses count identically.
#include "util/heap_alloc_counter.hpp"
#include "util/rng.hpp"

namespace nab::sim {
namespace {

using util::heap_allocs;

TEST(RunArena, MonotonicBumpAndResetReusesPages) {
  run_arena a;
  void* first = a.allocate(100, 8);
  ASSERT_NE(first, nullptr);
  void* second = a.allocate(200, 16);
  const std::size_t blocks = a.block_count();
  const std::size_t reserved = a.bytes_reserved();
  a.deallocate(first, 100);
  a.deallocate(second, 200);
  // After releasing everything, reset rewinds without freeing pages...
  a.reset();
  EXPECT_EQ(a.block_count(), blocks);
  EXPECT_EQ(a.bytes_reserved(), reserved);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  // ... and the same allocation sequence lands on the same addresses.
  EXPECT_EQ(a.allocate(100, 8), first);
}

TEST(RunArena, SizeClassPoolingRecyclesFreedBlocks) {
  run_arena a;
  void* p = a.allocate(48, 8);  // 64-byte class
  a.deallocate(p, 48);
  const std::uint64_t hits_before = a.pool_hits();
  void* q = a.allocate(64, 8);  // same class: must come off the free list
  EXPECT_EQ(q, p);
  EXPECT_EQ(a.pool_hits(), hits_before + 1);
  a.deallocate(q, 64);
  a.reset();
}

TEST(RunArena, AllocationsAreSixteenAligned) {
  run_arena a;
  for (std::size_t bytes : {1u, 7u, 24u, 100u, 5000u}) {
    void* p = a.allocate(bytes, 16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u) << bytes;
    a.deallocate(p, bytes);
  }
  a.reset();
}

TEST(RunArena, LargeBlocksAreBumpOnlyAndReclaimedByReset) {
  constexpr std::size_t big_bytes = 256 * 1024;  // above max_pooled_bytes
  run_arena a;
  void* big = a.allocate(big_bytes, 16);
  const std::size_t used = a.bytes_in_use();
  EXPECT_GE(used, big_bytes);
  a.deallocate(big, big_bytes);      // bump-only: space not reused yet...
  void* big2 = a.allocate(big_bytes, 16);
  EXPECT_NE(big2, nullptr);
  a.deallocate(big2, big_bytes);
  a.reset();                          // ...until the reset rewinds it
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.allocate(big_bytes, 16), big);
  a.deallocate(big, big_bytes);
  a.reset();
}

TEST(RunArena, OversizedContainersBypassTheArena) {
  // arena_alloc routes buffers beyond max_pooled_bytes straight to the heap
  // even while an arena is ambient — malloc recycles those better than a
  // monotonic arena can (cold-page churn).
  run_arena a;
  scoped_run_arena scope(&a);
  payload big(run_arena::max_pooled_bytes / sizeof(std::uint64_t) + 1, 1);
  EXPECT_FALSE(a.owns(big.data()));
  payload small(16, 1);
  EXPECT_TRUE(a.owns(small.data()));
}

TEST(RunArena, AmbientScopingAndHeapFallback) {
  run_arena a;
  EXPECT_EQ(ambient_arena(), nullptr);
  payload heap_backed{1, 2, 3};  // no ambient arena: plain heap
  EXPECT_FALSE(a.owns(heap_backed.data()));
  {
    scoped_run_arena scope(&a);
    EXPECT_EQ(ambient_arena(), &a);
    payload arena_backed{4, 5, 6};
    EXPECT_TRUE(a.owns(arena_backed.data()));
    {
      scoped_run_arena suspend(nullptr);  // nesting suspends pooling
      EXPECT_EQ(ambient_arena(), nullptr);
      payload suspended{7};
      EXPECT_FALSE(a.owns(suspended.data()));
    }
    EXPECT_EQ(ambient_arena(), &a);
  }
  EXPECT_EQ(ambient_arena(), nullptr);
  a.reset();
}

TEST(RunArena, HeaderRoutesDeallocationAfterScopeEnds) {
  // A container allocated under the arena may be destroyed after the ambient
  // scope ended (but before the reset): the per-allocation header routes the
  // free back to the owning arena, not the heap.
  run_arena a;
  payload escaped;
  {
    scoped_run_arena scope(&a);
    escaped.assign(100, 42);
  }
  EXPECT_TRUE(a.owns(escaped.data()));
  EXPECT_GT(a.live_allocations(), 0u);
  payload().swap(escaped);  // releases into the arena's free lists
  EXPECT_EQ(a.live_allocations(), 0u);
  a.reset();
}

#if GTEST_HAS_DEATH_TEST
TEST(RunArenaDeathTest, ResetWithLiveAllocationAborts) {
  // Use-after-reset is a contract violation the arena turns into a
  // deterministic abort — the property the session's epilogue relies on.
  EXPECT_DEATH(
      {
        run_arena a;
        scoped_run_arena scope(&a);
        payload leak(8, 1);
        a.reset();
      },
      "live allocations");
}
#endif

TEST(RunArena, ReusedAndResetBlocksAreWritable) {
  // Free-listed and reset space is poisoned under AddressSanitizer; handing
  // it out again must unpoison exactly what the caller received.
  run_arena a;
  auto* p = static_cast<char*>(a.allocate(64, 16));
  std::fill_n(p, 64, 'a');
  a.deallocate(p, 64);
  auto* q = static_cast<char*>(a.allocate(60, 16));  // same size class: reused
  EXPECT_EQ(q, p);
  std::fill_n(q, 64, 'b');
  a.deallocate(q, 60);
  a.reset();
  auto* r = static_cast<char*>(a.allocate(4000, 16));
  std::fill_n(r, 4000, 'c');
  a.deallocate(r, 4000);
  a.reset();
}

#if defined(__SANITIZE_ADDRESS__) && GTEST_HAS_DEATH_TEST
TEST(RunArenaDeathTest, StaleUseIsReportedUnderAddressSanitizer) {
  // A pointer kept past its block's return to the arena — to a free list,
  // or by a reset — reads poisoned memory, which ASan reports as it would a
  // use-after-free on the heap.
  EXPECT_DEATH(
      {
        run_arena a;
        auto* p = static_cast<volatile char*>(a.allocate(64, 16));
        p[0] = 1;
        a.deallocate(const_cast<char*>(p), 64);
        a.reset();
        p[8] = 2;
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        run_arena a;
        auto* p = static_cast<volatile char*>(a.allocate(64, 16));
        a.deallocate(const_cast<char*>(p), 64);
        p[16] = 3;
      },
      "use-after-poison");
}
#endif

// ---------------------------------------------------------------------------
// The allocation-budget regression harness.
// ---------------------------------------------------------------------------

/// Heap allocations per clean K_7 instance (f=1, 64-word payloads), measured
/// over `iters` instances after one warm-up instance.
std::uint64_t allocs_per_clean_k7_instance(bool pool_memory) {
  core::session_config cfg;
  cfg.g = graph::complete(7);
  cfg.f = 1;
  cfg.pool_memory = pool_memory;
  core::session s(cfg, fault_set(7));
  rng rand(1);
  std::vector<core::word> input(64);
  for (auto& w : input) w = static_cast<core::word>(rand.below(65536));
  s.run_instance(input);  // warm-up: arena pages, channel plan, coding
  constexpr int iters = 8;
  const std::uint64_t before = heap_allocs();
  for (int i = 0; i < iters; ++i) s.run_instance(input);
  return (heap_allocs() - before) / iters;
}

TEST(RunArena, AllocationBudgetCleanK7Session) {
  const std::uint64_t pooled = allocs_per_clean_k7_instance(true);
  const std::uint64_t heap_path = allocs_per_clean_k7_instance(false);
  std::printf("[ measure ] clean K_7 instance: %llu heap allocs pooled, "
              "%llu unpooled (%.1f%% eliminated)\n",
              static_cast<unsigned long long>(pooled),
              static_cast<unsigned long long>(heap_path),
              100.0 * (1.0 - static_cast<double>(pooled) /
                                 static_cast<double>(heap_path)));

  // The seed measured ~3.4k heap allocations per clean K_7 instance, most of
  // them EIG's label trees in the flag broadcast; with the phase-king flag
  // engine the unpooled path measures ~830. It must stay in that regime for
  // the ratio to mean anything.
  EXPECT_GE(heap_path, 500u) << "baseline lost its allocations — recalibrate";

  // Tentpole criterion: the arena kills >= 80% of per-instance allocations.
  EXPECT_LE(pooled * 5, heap_path)
      << "pooled=" << pooled << " heap=" << heap_path
      << " — arena coverage regressed below 80%";

  // Absolute pin (steady state currently measures ~60; generous headroom so
  // benign drift does not flake, while a lost arena integration — which
  // jumps back to thousands — always trips).
  EXPECT_LE(pooled, 200u) << "heap path: " << heap_path;
}

TEST(RunArena, SteadyStateSweepKeepsArenaPagesStable) {
  // Across repeated instances the arena must stop growing: the second and
  // later instances run entirely inside the pages the first one mapped.
  core::session_config cfg;
  cfg.g = graph::complete(7);
  cfg.f = 1;
  run_arena shard_arena;
  core::session s(cfg, fault_set(7), nullptr, &shard_arena);
  rng rand(2);
  std::vector<core::word> input(64, 7);
  s.run_instance(input);
  const std::size_t blocks = shard_arena.block_count();
  const std::uint64_t hits_before = shard_arena.pool_hits();
  for (int i = 0; i < 6; ++i) s.run_instance(input);
  EXPECT_EQ(shard_arena.block_count(), blocks);
  EXPECT_GT(shard_arena.pool_hits(), hits_before);  // free lists are working
  EXPECT_EQ(shard_arena.live_allocations(), 0u);    // reset left it empty
  EXPECT_EQ(shard_arena.resets(), 7u);
}

}  // namespace
}  // namespace nab::sim
