// M1: Galois-field and linear-algebra micro-benchmarks (google-benchmark).
// These underpin the Equality Check's per-bit cost: one GF(2^16) multiply
// per coefficient per slice.

#include <benchmark/benchmark.h>

#include "gf/gf2_16.hpp"
#include "gf/linalg.hpp"
#include "gf/matrix.hpp"
#include "support/gf256.hpp"
#include "support/gf2m.hpp"
#include "util/rng.hpp"

namespace {

template <class F>
void bm_mul(benchmark::State& state) {
  nab::rng rand(1);
  std::vector<typename F::value_type> xs(4096);
  for (auto& x : xs) x = static_cast<typename F::value_type>(rand.below(F::order));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = xs[i % xs.size()];
    const auto b = xs[(i + 1) % xs.size()];
    benchmark::DoNotOptimize(F::mul(a, b));
    ++i;
  }
}
BENCHMARK(bm_mul<nab::gf::gf256>)->Name("gf256_mul");
BENCHMARK(bm_mul<nab::gf::gf2_16>)->Name("gf2_16_mul");
BENCHMARK(bm_mul<nab::gf::gf2m<16>>)->Name("gf2m16_mul_shiftadd");

template <class F>
void bm_inv(benchmark::State& state) {
  nab::rng rand(2);
  std::vector<typename F::value_type> xs(4096);
  for (auto& x : xs) x = static_cast<typename F::value_type>(1 + rand.below(F::order - 1));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(F::inv(xs[i % xs.size()]));
    ++i;
  }
}
BENCHMARK(bm_inv<nab::gf::gf2_16>)->Name("gf2_16_inv");
BENCHMARK(bm_inv<nab::gf::gf2m<16>>)->Name("gf2m16_inv_fermat");

void bm_axpy_backend(benchmark::State& state, nab::gf::gf_backend backend) {
  using F = nab::gf::gf2_16;
  if (!F::set_backend(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(5);
  std::vector<F::value_type> src(n), dst(n);
  for (auto& x : src) x = static_cast<F::value_type>(rand.below(F::order));
  for (auto& x : dst) x = static_cast<F::value_type>(rand.below(F::order));
  for (auto _ : state) {
    F::axpy(dst.data(), src.data(), 0x1b3f, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
  F::set_backend(nab::gf::gf_backend::scalar);
}
BENCHMARK_CAPTURE(bm_axpy_backend, scalar, nab::gf::gf_backend::scalar)
    ->Name("gf2_16_axpy_scalar")->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_axpy_backend, ssse3, nab::gf::gf_backend::ssse3)
    ->Name("gf2_16_axpy_ssse3")->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_axpy_backend, avx2, nab::gf::gf_backend::avx2)
    ->Name("gf2_16_axpy_avx2")->Arg(64)->Arg(640)->Arg(4096);
BENCHMARK_CAPTURE(bm_axpy_backend, avx512_gfni, nab::gf::gf_backend::avx512_gfni)
    ->Name("gf2_16_axpy_avx512_gfni")->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(126)->Arg(640)
    ->Arg(4096);
BENCHMARK_CAPTURE(bm_axpy_backend, neon, nab::gf::gf_backend::neon)
    ->Name("gf2_16_axpy_neon")->Arg(64)->Arg(640)->Arg(4096);

void bm_matrix_mul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(3);
  const auto a = nab::gf::matrix<nab::gf::gf2_16>::random(n, n, rand);
  const auto b = nab::gf::matrix<nab::gf::gf2_16>::random(n, n, rand);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_matrix_mul)->Name("gf2_16_matrix_mul")->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_matrix_rank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nab::rng rand(4);
  const auto a = nab::gf::matrix<nab::gf::gf2_16>::random(n, 2 * n, rand);
  for (auto _ : state) benchmark::DoNotOptimize(nab::gf::rank(a));
}
BENCHMARK(bm_matrix_rank)->Name("gf2_16_rank")->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
