// Scalar-vs-SIMD cross-check suite for the gf2_16 row-kernel backends.
//
// Every backend must produce byte-identical results AND byte-identical obs
// counters for any (pointer alignment, tail length, coefficient) — the
// deterministic-counter contract (jobs-1-vs-N, pooled-vs-unpooled) extends
// across kernel backends, so a SIMD path that counted words differently
// from the scalar loop would break BENCH byte-stability the moment two
// machines pick different backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

using word = gf2_16::value_type;

constexpr gf_backend all_backends[] = {gf_backend::scalar, gf_backend::ssse3,
                                       gf_backend::avx2, gf_backend::avx512_gfni,
                                       gf_backend::neon};

std::vector<gf_backend> supported_backends() {
  const gf_backend initial = gf2_16::backend();
  std::vector<gf_backend> out;
  for (gf_backend b : all_backends)
    if (gf2_16::set_backend(b)) out.push_back(b);
  gf2_16::set_backend(initial);
  return out;
}

/// RAII: force a backend for one scope, restore the previous one after.
class backend_scope {
 public:
  explicit backend_scope(gf_backend b) : prev_(gf2_16::backend()) {
    EXPECT_TRUE(gf2_16::set_backend(b));
  }
  ~backend_scope() { gf2_16::set_backend(prev_); }

 private:
  gf_backend prev_;
};

word ref_mul(word a, word b) { return gf2_16::mul(a, b); }

/// Names the backend the environment selected before any test switches
/// it, so a run under NAB_GF_BACKEND=x shows whether x actually ran or
/// fell back on a CPU that lacks it.
class selected_backend_report : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* env = std::getenv("NAB_GF_BACKEND");
    std::printf("[ gf backend ] NAB_GF_BACKEND=%s selected %s\n",
                env != nullptr ? env : "(unset)",
                gf2_16::backend_name(gf2_16::backend()));
  }
};

[[maybe_unused]] ::testing::Environment* const selected_backend_env =
    ::testing::AddGlobalTestEnvironment(new selected_backend_report);

/// Every length 0..200: both short-row cutoffs (16 words for avx512_gfni,
/// 128 for the nibble-table kernels) and every tail residue of each vector
/// stride (8, 16 and 64 words) on both sides of them; plus one long row
/// that runs the 64-word step many times.
std::vector<std::size_t> test_lengths() {
  std::vector<std::size_t> ns;
  for (std::size_t t = 0; t <= 200; ++t) ns.push_back(t);
  ns.push_back(4099);
  return ns;
}

/// Rows with zeros sprinkled in (the scalar loop's s == 0 skip) and full
/// 16-bit values elsewhere.
std::vector<word> random_row(rng& rand, std::size_t n) {
  std::vector<word> row(n);
  for (word& w : row)
    w = rand.below(5) == 0 ? 0 : static_cast<word>(1 + rand.below(65535));
  return row;
}

TEST(GfKernels, ScalarIsTheDefaultFallbackAndNamesRoundTrip) {
  EXPECT_TRUE(gf2_16::set_backend(gf_backend::scalar));
  EXPECT_EQ(gf2_16::backend(), gf_backend::scalar);
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::scalar), "scalar");
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::ssse3), "ssse3");
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::avx2), "avx2");
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::avx512_gfni), "avx512_gfni");
  EXPECT_STREQ(gf2_16::backend_name(gf_backend::neon), "neon");
  // At least one SIMD backend is expected on the CI x86 / AArch64 runners,
  // but a build must never FAIL for lacking one — unsupported requests are
  // rejected cleanly.
  for (gf_backend b : all_backends) {
    if (!gf2_16::set_backend(b)) {
      EXPECT_NE(gf2_16::backend(), b);
    }
  }
  gf2_16::set_backend(gf_backend::scalar);
}

TEST(GfKernels, Avx512GfniIsAcceptedOrRejectedCleanly) {
  const gf_backend initial = gf2_16::backend();
  ASSERT_TRUE(gf2_16::set_backend(gf_backend::scalar));
  if (!gf2_16::set_backend(gf_backend::avx512_gfni)) {
    // The rejected request leaves the active backend untouched.
    EXPECT_EQ(gf2_16::backend(), gf_backend::scalar);
    gf2_16::set_backend(initial);
    GTEST_SKIP() << "this CPU lacks AVX-512BW/VBMI + GFNI; avx512_gfni not run";
  }
  EXPECT_EQ(gf2_16::backend(), gf_backend::avx512_gfni);
  gf2_16::set_backend(initial);
}

TEST(GfKernels, AxpyMatchesMulAcrossBackendsTailsAlignmentsAndCoeffs) {
  rng rand(0x5eed);
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    // The +1/+3 word offsets break 16- and 32-byte alignment.
    for (std::size_t n : test_lengths()) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        for (word coeff : {word{0}, word{1}, static_cast<word>(1 + rand.below(65535)),
                           static_cast<word>(1 + rand.below(65535))}) {
          std::vector<word> src = random_row(rand, n + off);
          std::vector<word> dst = random_row(rand, n + off);
          std::vector<word> expect(dst);
          for (std::size_t i = 0; i < n; ++i)
            expect[off + i] =
                gf2_16::add(expect[off + i], ref_mul(coeff, src[off + i]));
          gf2_16::axpy(dst.data() + off, src.data() + off, coeff, n);
          EXPECT_EQ(dst, expect) << "backend " << gf2_16::backend_name(b)
                                 << " n=" << n << " off=" << off
                                 << " coeff=" << coeff;
        }
      }
    }
    // A long odd row at a fixed coefficient whose four 8x8 blocks are all
    // non-trivial.
    const std::size_t n = 517;
    const word coeff = 0x1b3f;
    std::vector<word> src = random_row(rand, n);
    std::vector<word> dst = random_row(rand, n);
    std::vector<word> expect(dst);
    for (std::size_t i = 0; i < n; ++i)
      expect[i] = gf2_16::add(expect[i], ref_mul(coeff, src[i]));
    gf2_16::axpy(dst.data(), src.data(), coeff, n);
    EXPECT_EQ(dst, expect) << gf2_16::backend_name(b);
  }
}

TEST(GfKernels, ScaleMatchesMulIncludingAliasedInPlaceUse) {
  rng rand(0xabcd);
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    for (std::size_t n : test_lengths()) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        for (word coeff : {word{0}, word{1}, static_cast<word>(1 + rand.below(65535))}) {
          // scale is inherently aliased (reads and writes the same row);
          // the dst==src concern is that a backend might stage through the
          // source after partially overwriting it.
          std::vector<word> v = random_row(rand, n + off);
          std::vector<word> expect(v);
          for (std::size_t i = 0; i < n; ++i)
            expect[off + i] = ref_mul(coeff, v[off + i]);
          gf2_16::scale(v.data() + off, coeff, n);
          EXPECT_EQ(v, expect) << "backend " << gf2_16::backend_name(b)
                               << " n=" << n << " off=" << off
                               << " coeff=" << coeff;
        }
      }
    }
  }
}

TEST(GfKernels, RandomLengthsOffsetsAndCoefficientsMatchMul) {
  // Every coefficient has its own bit-matrix blocks, so draw many of them:
  // random (length 0..700, word offset 0..4, coefficient) trials per backend.
  // The 64 guard words past each row must come back untouched: a tail step
  // may not read or write beyond n.
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    rng rand(0xf1e1d);
    for (int trial = 0; trial < 2000; ++trial) {
      const std::size_t n = rand.below(701);
      const std::size_t off = rand.below(5);
      const word coeff = static_cast<word>(rand.below(65536));
      std::vector<word> src = random_row(rand, n + off + 64);
      std::vector<word> dst = random_row(rand, n + off + 64);
      std::vector<word> axpy_expect(dst), scale_expect(src);
      for (std::size_t i = 0; i < n; ++i) {
        axpy_expect[off + i] ^= ref_mul(coeff, src[off + i]);
        scale_expect[off + i] = ref_mul(coeff, src[off + i]);
      }
      gf2_16::axpy(dst.data() + off, src.data() + off, coeff, n);
      gf2_16::scale(src.data() + off, coeff, n);
      ASSERT_EQ(dst, axpy_expect) << gf2_16::backend_name(b) << " n=" << n
                                  << " off=" << off << " coeff=" << coeff;
      ASSERT_EQ(src, scale_expect) << gf2_16::backend_name(b) << " n=" << n
                                   << " off=" << off << " coeff=" << coeff;
    }
  }
}

TEST(GfKernels, EveryCoefficientMatchesMulOnTheBasis) {
  // The avx512_gfni kernel derives a bit matrix per coefficient; a row that
  // starts with the sixteen unit words x^0..x^15 reads that whole matrix
  // back, so this sweeps every coefficient's matrix exactly. 136 words keep
  // the nibble-table kernels on their vector path too.
  const std::vector<gf_backend> backends = supported_backends();
  const gf_backend initial = gf2_16::backend();
  rng rand(0xba515);
  std::vector<word> src = random_row(rand, 136);
  for (unsigned j = 0; j < 16; ++j) src[j] = static_cast<word>(1u << j);
  std::vector<word> expect(src.size()), dst(src.size());
  for (unsigned c = 0; c < 65536; ++c) {
    const word coeff = static_cast<word>(c);
    for (std::size_t i = 0; i < src.size(); ++i) expect[i] = ref_mul(coeff, src[i]);
    for (gf_backend b : backends) {
      gf2_16::set_backend(b);
      std::fill(dst.begin(), dst.end(), word{0});
      gf2_16::axpy(dst.data(), src.data(), coeff, dst.size());
      ASSERT_EQ(dst, expect) << gf2_16::backend_name(b) << " coeff=" << coeff;
    }
  }
  gf2_16::set_backend(initial);
}

TEST(GfKernels, AxpyToleratesDstAliasingSrc) {
  // dst == src is elementwise-safe by the kernel contract: dst[i] ^=
  // c*src[i] reads src[i] before (or independent of) the store.
  rng rand(0x77);
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    std::vector<word> v = random_row(rand, 157);  // past the short-row cutoff
    const word coeff = 0x0101;
    std::vector<word> expect(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
      expect[i] = gf2_16::add(v[i], ref_mul(coeff, v[i]));
    gf2_16::axpy(v.data(), v.data(), coeff, v.size());
    EXPECT_EQ(v, expect) << gf2_16::backend_name(b);
  }
}

TEST(GfKernels, CountersAreWordsPresentedAndBackendInvariant) {
  // The satellite-2 contract: counters mean words PRESENTED. coeff == 0
  // axpys and coeff == 1 scales count their n despite doing no table work,
  // rows full of zero source words count fully, and every backend reports
  // the same totals for the same call sequence.
  const auto run_ops = [] {
    obs::collector col;
    {
      obs::scoped_collector scope(&col);
      std::vector<word> a(37, word{7}), b(37, word{0});
      gf2_16::axpy(a.data(), b.data(), 0x1234, a.size());  // all-zero source
      gf2_16::axpy(a.data(), b.data(), 0, a.size());       // coeff 0 early-out
      gf2_16::scale(a.data(), 1, a.size());                // coeff 1 early-out
      gf2_16::scale(a.data(), 0, a.size());                // zero-fill
      gf2_16::scale(a.data(), 0x4321, 13);
      gf2_16::axpy(a.data(), b.data(), 0x00ff, 5);
    }
    return std::pair{col.value(obs::counter::gf_axpy_words),
                     col.value(obs::counter::gf_scale_words)};
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (gf_backend b : supported_backends()) {
    backend_scope scope(b);
    totals.push_back(run_ops());
  }
  ASSERT_FALSE(totals.empty());
  EXPECT_EQ(totals.front().first, 37u + 37u + 5u);
  EXPECT_EQ(totals.front().second, 37u + 37u + 13u);
  for (const auto& t : totals) EXPECT_EQ(t, totals.front());
}

}  // namespace
}  // namespace nab::gf
