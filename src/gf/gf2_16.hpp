#pragma once

#include <cstddef>
#include <cstdint>

namespace nab::gf {

/// Row-kernel implementation backends for gf2_16::axpy / gf2_16::scale.
/// `scalar` is the portable loop and the bit-exact reference. `ssse3`,
/// `avx2` and `neon` run the standard 4-bit half-table multiply
/// (GF-Complete / sparsenc's `multiply_add_region` trick) over the two byte
/// planes of each 16-bit word — x86 `pshufb` (SSSE3, widened on AVX2) or
/// AArch64 `vtbl`. `avx512_gfni` (AVX-512BW + VBMI + GFNI) treats "multiply
/// by c" as a 16x16 bit matrix over GF(2) and applies its four 8x8 blocks
/// with `vgf2p8affineqb` to the split byte planes, 64 words per step.
/// Every backend produces identical bytes and identical obs counters; only
/// throughput differs.
enum class gf_backend : int { scalar, ssse3, avx2, avx512_gfni, neon };

namespace detail {

/// Log/antilog tables for GF(2^16) (128 KiB + 256 KiB), computed at compile
/// time. exp is doubled (and padded) so mul can skip a modulo; the single
/// constinit instance lives in gf2_16.cpp, so table access is a plain load —
/// no initialization guard on any fast path.
struct gf2_16_tables {
  std::uint16_t log[65536];
  std::uint16_t exp[131072];
  bool primitive = false;

  constexpr gf2_16_tables() : log(), exp() {
    constexpr unsigned poly = 0x1100B;
    unsigned x = 1;
    for (unsigned i = 0; i < 65535; ++i) {
      exp[i] = static_cast<std::uint16_t>(x);
      exp[i + 65535] = static_cast<std::uint16_t>(x);
      log[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & 0x10000) x ^= poly;
    }
    primitive = x == 1;  // 0x1100B must be primitive over GF(2^16)
    log[0] = 0;
    exp[131070] = exp[65535];
    exp[131071] = exp[65536];
  }
};

extern const gf2_16_tables gf2_16_t;

}  // namespace detail

/// The finite field GF(2^16) with primitive polynomial
/// x^16 + x^12 + x^3 + x + 1 (0x1100B) and generator alpha = 2.
///
/// This is the default coefficient field for NAB's equality-check coding
/// matrices: the paper draws coefficients from GF(2^{L/rho}); we draw them
/// from GF(2^16) and apply them slice-wise to L/rho-bit symbols (the standard
/// random-linear-network-coding realization — see docs/PAPER_MAP.md,
/// "GF(2^16) slice-wise coding").
///
/// Scalar ops are header-inline over compile-time tables; the row kernels
/// (axpy/scale) additionally hoist the scalar's log lookup out of the loop —
/// Gaussian elimination in gf/linalg.hpp (behind core/certify.cpp) and
/// core::coding_scheme::encode run on them.
class gf2_16 {
 public:
  using value_type = std::uint16_t;

  static constexpr unsigned bits = 16;
  static constexpr std::uint64_t order = 65536;

  static constexpr value_type zero() { return 0; }
  static constexpr value_type one() { return 1; }

  static constexpr value_type add(value_type a, value_type b) {
    return static_cast<value_type>(a ^ b);
  }
  static constexpr value_type sub(value_type a, value_type b) { return add(a, b); }
  static constexpr value_type neg(value_type a) { return a; }

  static value_type mul(value_type a, value_type b) {
    if (a == 0 || b == 0) return 0;
    const auto& tab = detail::gf2_16_t;
    return tab.exp[static_cast<unsigned>(tab.log[a]) + tab.log[b]];
  }

  /// Multiplicative inverse. Precondition: a != 0.
  static value_type inv(value_type a);

  /// a / b. Precondition: b != 0.
  static value_type div(value_type a, value_type b);

  static value_type pow(value_type a, std::uint64_t e);

  /// dst[i] += coeff * src[i] for i in [0, n). The workhorse of row
  /// elimination; dispatches to the active backend (gf2_16_kernels.cpp).
  ///
  /// Counter contract: `gf_axpy_words` counts words PRESENTED (n per call,
  /// before the coeff == 0 early-out), not words multiplied — the SIMD
  /// paths branch on neither coeff nor the per-word s == 0 skip, and the
  /// deterministic-counter byte-identity contract (jobs-1-vs-N,
  /// pooled-vs-unpooled, scalar-vs-SIMD) requires one definition that every
  /// backend can report identically.
  static void axpy(value_type* dst, const value_type* src, value_type coeff,
                   std::size_t n);

  /// v[i] *= coeff for i in [0, n). Same words-presented counter contract
  /// as axpy (`gf_scale_words` counts n even for coeff 0 / 1).
  static void scale(value_type* v, value_type coeff, std::size_t n);

  /// The active row-kernel backend. Selected once on first kernel use:
  /// NAB_GF_BACKEND=scalar|ssse3|avx2|avx512_gfni|neon forces a backend
  /// (silently falling back to the best supported one when this CPU lacks
  /// it); unset/auto picks the fastest supported one, in the order
  /// avx512_gfni, avx2, ssse3, neon, scalar.
  static gf_backend backend();

  /// Forces a backend at runtime (tests; the env override uses the same
  /// path). Returns false — leaving the active backend unchanged — when
  /// this build/CPU does not support `b`. Not safe to call concurrently
  /// with in-flight kernels; tests switch backends only between operations.
  static bool set_backend(gf_backend b);

  static const char* backend_name(gf_backend b);
};

}  // namespace nab::gf
