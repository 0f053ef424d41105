#pragma once

#include <cstdint>

namespace nab::test {

/// splitmix64 (Steele, Lea & Flood) as a stream: advances `state` and
/// returns the next word. The mutation tests draw every choice from it, so
/// a failing case reproduces from its seed alone.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace nab::test
