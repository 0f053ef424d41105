#include "sim/run_arena.hpp"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace nab::sim {

namespace {

std::size_t round_up(std::size_t bytes, std::size_t align) {
  return (bytes + align - 1) & ~(align - 1);
}

// Under AddressSanitizer, arena space that is not handed out (fresh block
// tails, free-listed blocks, everything after a reset) is poisoned, so a
// use-after-free or use-after-reset inside the arena is reported like one on
// the heap. Both are no-ops in other builds.
void poison(const void* p, std::size_t bytes) { ASAN_POISON_MEMORY_REGION(p, bytes); }
void unpoison(const void* p, std::size_t bytes) { ASAN_UNPOISON_MEMORY_REGION(p, bytes); }

thread_local run_arena* ambient = nullptr;

}  // namespace

run_arena* ambient_arena() { return ambient; }

scoped_run_arena::scoped_run_arena(run_arena* a) : previous_(ambient) {
  ambient = a;
}

scoped_run_arena::~scoped_run_arena() { ambient = previous_; }

int run_arena::class_of(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return -1;
  std::size_t cls_bytes = kMinClassBytes;
  int cls = 0;
  while (cls_bytes < bytes) {
    cls_bytes <<= 1;
    ++cls;
  }
  return cls;
}

void* run_arena::bump(std::size_t bytes) {
  while (cursor_ < blocks_.size()) {
    block& b = blocks_[cursor_];
    if (b.size - b.used >= bytes) {
      void* p = b.data.get() + b.used;
      b.used += bytes;
      unpoison(p, bytes);
      return p;
    }
    ++cursor_;
  }
  // Grow geometrically: each new block doubles the previous one, so a run's
  // whole working set ends up in O(log size) heap allocations total.
  constexpr std::size_t kMinBlockBytes = 64 * 1024;
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size;
  std::size_t size = std::max({bytes, 2 * last, kMinBlockBytes});
  block b;
  // Not zero-filled: a page turns resident only once a run writes it, so a
  // shard's retained high-water block costs RSS only for what it used (a
  // reset block is never zero either, so nothing may rely on it).
  b.data = std::make_unique_for_overwrite<std::byte[]>(size);
  NAB_ASSERT(reinterpret_cast<std::uintptr_t>(b.data.get()) % kAlign == 0,
             "arena block storage must be 16-aligned");
  b.size = size;
  b.used = bytes;
  poison(b.data.get() + bytes, size - bytes);
  blocks_.push_back(std::move(b));
  cursor_ = blocks_.size() - 1;
  return blocks_.back().data.get();
}

void* run_arena::allocate(std::size_t bytes, std::size_t align) {
  NAB_ASSERT(align <= kAlign, "run_arena serves alignments up to 16");
  ++live_;
  ++total_;
  // Machine-set counters: pool state depends on what ran on the shard before.
  obs::count(obs::counter::arena_allocs);
  const int cls = class_of(bytes);
  if (cls >= 0) {
    if (void* head = free_lists_[cls]) {
      unpoison(head, class_bytes(cls));
      std::memcpy(&free_lists_[cls], head, sizeof(void*));
      ++pool_hits_;
      obs::count(obs::counter::arena_pool_hits);
      return head;
    }
    return bump(class_bytes(cls));
  }
  return bump(round_up(bytes, kAlign));
}

void run_arena::deallocate(void* p, std::size_t bytes) noexcept {
  --live_;
  const int cls = class_of(bytes);
  if (cls < 0) {  // bump-only: reclaimed by the next reset
    poison(p, round_up(bytes, kAlign));
    return;
  }
  std::memcpy(p, &free_lists_[cls], sizeof(void*));
  free_lists_[cls] = p;
  poison(p, class_bytes(cls));
}

void run_arena::reset() {
  NAB_ASSERT(live_ == 0,
             "run_arena::reset with live allocations — a container outlived "
             "the run (use-after-reset)");
  for (void*& head : free_lists_) head = nullptr;
  for (block& b : blocks_) {
    b.used = 0;
    poison(b.data.get(), b.size);
  }
  cursor_ = 0;
  ++resets_;
}

bool run_arena::owns(const void* p) const {
  const auto* b = static_cast<const std::byte*>(p);
  for (const block& blk : blocks_)
    if (b >= blk.data.get() && b < blk.data.get() + blk.size) return true;
  return false;
}

std::size_t run_arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const block& b : blocks_) total += b.size;
  return total;
}

std::size_t run_arena::bytes_in_use() const {
  std::size_t total = 0;
  for (const block& b : blocks_) total += b.used;
  return total;
}

namespace detail {

void* arena_allocate(std::size_t bytes) {
  const std::size_t total = bytes + sizeof(alloc_header);
  // Large buffers bypass the arena even when one is ambient: malloc recycles
  // them adaptively, while a monotonic arena would burn cold pages on every
  // vector-growth step (see run_arena::max_pooled_bytes).
  run_arena* a = total <= run_arena::max_pooled_bytes ? ambient : nullptr;
  void* raw = a != nullptr ? a->allocate(total, alignof(alloc_header))
                           : ::operator new(total);
  auto* header = static_cast<alloc_header*>(raw);
  header->owner = a;
  header->magic = kArenaMagic;
  return static_cast<std::byte*>(raw) + sizeof(alloc_header);
}

void arena_deallocate(void* p, std::size_t bytes) noexcept {
  void* raw = static_cast<std::byte*>(p) - sizeof(alloc_header);
  auto* header = static_cast<alloc_header*>(raw);
  NAB_ASSERT(header->magic == kArenaMagic,
             "arena_alloc header corrupted (heap smash or foreign pointer)");
  if (header->owner != nullptr)
    header->owner->deallocate(raw, bytes + sizeof(alloc_header));
  else
    ::operator delete(raw);
}

}  // namespace detail

}  // namespace nab::sim
