// Experiment E3 (Theorem 1): soundness of the Equality Check with random
// coding matrices. The theorem bounds the probability that a random scheme
// FAILS to detect unequal values by 2^{-L/rho} * C(n,n-f) * (n-f-1) * rho.
//
// To make misses observable we shrink the coefficient field to GF(2^m),
// m in {4,6,8,10}: the protocol run is otherwise identical, so the measured
// miss rate must track the 2^-m scaling of the bound (at GF(2^16), the
// production field, misses are unobservable — which is the point).
//
// Setup per trial: complete graph K_n, one deviant node holds X' != X; a
// miss occurs when NO node's incoming-edge checks fail.

#include <cmath>
#include <cstdio>

#include "core/certify.hpp"
#include "gf/matrix.hpp"
#include "graph/generators.hpp"
#include "support/gf2m.hpp"
#include "util/rng.hpp"

namespace {

/// One coded edge of capacity z between two nodes whose values differ in one
/// random symbol: the check misses iff (X_i - X_j) C_e = 0, which for random
/// C_e happens with probability exactly 2^{-m z} — the atomic event whose
/// union over edges, symbols and subgraphs is Theorem 1's bound.
template <class F>
bool edge_miss_once(int rho, int z, nab::rng& rand) {
  using mat = nab::gf::matrix<F>;
  std::vector<typename F::value_type> diff(static_cast<std::size_t>(rho), F::zero());
  const auto sym = static_cast<std::size_t>(rand.below(static_cast<std::uint64_t>(rho)));
  diff[sym] = static_cast<typename F::value_type>(1 + rand.below(F::order - 1));

  const mat ce = mat::random(static_cast<std::size_t>(rho), static_cast<std::size_t>(z),
                             rand);
  for (int k = 0; k < z; ++k) {
    typename F::value_type y = F::zero();
    for (int s = 0; s < rho; ++s)
      y = F::add(y, F::mul(diff[static_cast<std::size_t>(s)],
                           ce.at(static_cast<std::size_t>(s), static_cast<std::size_t>(k))));
    if (y != F::zero()) return false;  // detected
  }
  return true;
}

template <class F>
void sweep(int m, int rho, int z, int trials, nab::rng& rand) {
  int misses = 0;
  for (int t = 0; t < trials; ++t)
    if (edge_miss_once<F>(rho, z, rand)) ++misses;
  const double measured = static_cast<double>(misses) / trials;
  const double exact = std::pow(2.0, -static_cast<double>(m) * z);
  std::printf(
      "  m=%-3d rho=%-2d z=%-2d trials=%-8d miss=%-10.3e predicted 2^-mz=%-10.3e %s\n",
      m, rho, z, trials, measured, exact,
      std::abs(measured - exact) <= 5 * std::sqrt(exact / trials) + 1e-6
          ? "OK"
          : "DEVIATES");
}

}  // namespace

int main() {
  std::printf("E3: Theorem 1 — equality-check miss probability vs field size\n");
  std::printf("  (single coded edge, capacity z: P[miss] = 2^-mz exactly; Theorem 1\n");
  std::printf("   union-bounds this over every edge, symbol and subgraph in Omega_k)\n");
  nab::rng rand(0xE3);
  sweep<nab::gf::gf2m<4>>(4, 1, 1, 400000, rand);
  sweep<nab::gf::gf2m<4>>(4, 2, 1, 400000, rand);
  sweep<nab::gf::gf2m<4>>(4, 4, 1, 400000, rand);
  sweep<nab::gf::gf2m<6>>(6, 2, 1, 400000, rand);
  sweep<nab::gf::gf2m<8>>(8, 2, 1, 2000000, rand);
  sweep<nab::gf::gf2m<10>>(10, 2, 1, 4000000, rand);
  sweep<nab::gf::gf2m<4>>(4, 2, 2, 2000000, rand);
  sweep<nab::gf::gf2m<4>>(4, 2, 3, 4000000, rand);
  sweep<nab::gf::gf2m<6>>(6, 2, 2, 4000000, rand);

  // The production field: certify whole schemes (Theorem 1's exact
  // condition, checked by GF rank) — failures should essentially never
  // happen at 2^16.
  std::printf("  GF(2^16) certification of 100 random schemes on K5, f=1, rho=2: ");
  nab::rng seeds(0xC0DE);
  int ok = 0;
  const auto g = nab::graph::complete(5);
  for (int i = 0; i < 100; ++i) {
    const auto cs = nab::core::coding_scheme::generate(g, 2, seeds.next_u64());
    if (nab::core::certify_coding(g, 1, nab::core::dispute_record{}, cs).ok) ++ok;
  }
  std::printf("%d/100 certified (thm1 failure bound %.2e)\n", ok,
              nab::core::theorem1_failure_bound(5, 1, 2, 16));
  return 0;
}
