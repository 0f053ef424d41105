#pragma once

// Binary-wide operator-new interposition counter, shared by the allocation
// benchmarks (bench_micro_session) and the arena regression harness
// (tests/sim/test_run_arena.cpp) so their "allocs" numbers mean the same
// thing.
//
// Include this from EXACTLY ONE translation unit per binary: it defines the
// global replacement allocation functions, which are program-wide and (per
// [replacement.functions]) must not be inline — a second including TU is an
// ODR violation the linker will reject.

#include <atomic>
#include <cstdlib>
#include <new>

namespace nab::util {

inline std::atomic<std::uint64_t> heap_alloc_count{0};

/// The free() behind every replacement operator delete, kept out of line:
/// once a delete is inlined after a new, GCC's -Wmismatched-new-delete
/// flags a free() it can trace back to an operator new result.
[[gnu::noinline]] inline void heap_release(void* p) noexcept { std::free(p); }

/// Heap allocations (any operator-new form) since process start.
inline std::uint64_t heap_allocs() {
  return heap_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace nab::util

void* operator new(std::size_t n) {
  nab::util::heap_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  nab::util::heap_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { nab::util::heap_release(p); }
void operator delete(void* p, std::size_t) noexcept { nab::util::heap_release(p); }
void operator delete[](void* p) noexcept { nab::util::heap_release(p); }
void operator delete[](void* p, std::size_t) noexcept { nab::util::heap_release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  nab::util::heap_release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  nab::util::heap_release(p);
}
