// Row-kernel backends for gf2_16::axpy / gf2_16::scale.
//
// Multiplying a row by a fixed coefficient c is a linear map over GF(2):
// every backend computes it as a sum of smaller linear maps it can look up
// or evaluate in parallel.
//
// The pshufb/vtbl backends (ssse3, avx2, neon) run the classic 4-bit
// half-table region multiply (GF-Complete / sparsenc lineage): split every
// source word s into its four nibbles, so
//
//   c * s = sum_k (c * x^{4k}) * nib_k(s)        (k = 0..3, GF(2^16))
//
// and each term is a 16-entry table lookup T_k[nib] = (c * x^{4k}) * nib.
// Storing T_k as separate low-byte / high-byte planes turns the lookup into
// one byte shuffle per plane: on u16 lanes, (s >> 4k) & 0x000f leaves the
// nibble in the even byte and 0 in the odd byte, and T_k[0] = 0 maps the odd
// bytes to 0, so no lane repacking (ALTMAP) is needed. Eight shuffles per
// 128-bit vector of eight words; AVX2 doubles the width.
//
// The avx512_gfni backend evaluates the map as a bit matrix instead.
// "Multiply by c" is a 16x16 matrix M over GF(2) whose column j is c * x^j
// reduced by 0x1100B. With s = s_lo + x^8 s_hi,
//
//   (c*s)_lo = M_ll s_lo + M_lh s_hi      (c*s)_hi = M_hl s_lo + M_hh s_hi
//
// where each M_ab is an 8x8 block: exactly the operand of one
// vgf2p8affineqb, which applies an 8x8 GF(2) matrix to every byte. Per 64
// words, two vpermt2b split the words into a low-byte and a high-byte
// plane, four affines and two XORs form both product planes, and two
// vpermt2b interleave them back. The four blocks are built in about a dozen
// vector instructions (all sixteen columns in parallel, then one byte
// gather and one affine that transposes the blocks), against the nibble
// tables' 64 scalar table multiplies. That moves this backend's short-row
// cutoff from 128 words down to 16, and AVX-512 masked loads and stores take
// every tail, so rows past the cutoff never leave the vector path (the K_64
// certification's 126-column downdate rows included).
//
// Backend selection happens once, on first kernel use: NAB_GF_BACKEND
// forces a backend by name (falling back to the best supported one when the
// CPU lacks it), otherwise the fastest supported set wins. Every backend is
// one `template <bool Accumulate>` body: dst ^= c*src (axpy) or dst = c*src
// (scale, called in place). Every backend is bit-exact against the scalar
// loop — the cross-check suite in tests/gf/test_gf2_16_kernels.cpp pins
// that for every length 0..200 plus long rows, unaligned pointers and
// aliased scales.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "gf/gf2_16.hpp"
#include "obs/obs.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define NAB_GF_KERNELS_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define NAB_GF_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace nab::gf {

namespace {

using word = gf2_16::value_type;

// --- scalar reference kernel ------------------------------------------------
// The s == 0 skip is a correctness requirement, not an optimization: log[0]
// is a sentinel and exp[lc + log[0]] would be garbage.

template <bool Accumulate>
void mul_scalar(word* dst, const word* src, word coeff, std::size_t n) {
  const auto& tab = detail::gf2_16_t;
  const unsigned lc = tab.log[coeff];
  for (std::size_t i = 0; i < n; ++i) {
    const word s = src[i];
    if (s == 0) {
      if constexpr (!Accumulate) dst[i] = 0;
      continue;
    }
    const word p = tab.exp[lc + tab.log[s]];
    dst[i] = Accumulate ? static_cast<word>(dst[i] ^ p) : p;
  }
}

// --- 4-bit half tables ------------------------------------------------------

struct nibble_tables {
  std::uint8_t lo[4][16];
  std::uint8_t hi[4][16];
};

void build_tables(word coeff, nibble_tables& t) {
  for (int k = 0; k < 4; ++k) {
    // x^{4k} as a field element is just the monomial 1 << 4k (4k < 16, so
    // no reduction), making T_k[v] = (coeff * x^{4k}) * v.
    const word fk = gf2_16::mul(coeff, static_cast<word>(1u << (4 * k)));
    for (int v = 0; v < 16; ++v) {
      const word p = gf2_16::mul(fk, static_cast<word>(v));
      t.lo[k][v] = static_cast<std::uint8_t>(p & 0xff);
      t.hi[k][v] = static_cast<std::uint8_t>(p >> 8);
    }
  }
}

// The per-call half-table build (64 scalar muls, ~50 ns) only amortizes on
// long rows; measured crossover vs the scalar loop sits near 90–140 words
// on both SSSE3 and AVX2, so the nibble kernels hand shorter rows straight
// back to the scalar loop.
constexpr std::size_t nibble_min_words = 128;

#if NAB_GF_KERNELS_X86

template <bool Accumulate>
__attribute__((target("ssse3"))) void mul_ssse3(word* dst, const word* src,
                                                word coeff, std::size_t n) {
  if (n < nibble_min_words) { mul_scalar<Accumulate>(dst, src, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  __m128i tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo[k]));
    thi[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi[k]));
  }
  const __m128i mask = _mm_set1_epi16(0x000f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i idx = _mm_and_si128(s, mask);
    __m128i lo = _mm_shuffle_epi8(tlo[0], idx);
    __m128i hi = _mm_shuffle_epi8(thi[0], idx);
    idx = _mm_and_si128(_mm_srli_epi16(s, 4), mask);
    lo = _mm_xor_si128(lo, _mm_shuffle_epi8(tlo[1], idx));
    hi = _mm_xor_si128(hi, _mm_shuffle_epi8(thi[1], idx));
    idx = _mm_and_si128(_mm_srli_epi16(s, 8), mask);
    lo = _mm_xor_si128(lo, _mm_shuffle_epi8(tlo[2], idx));
    hi = _mm_xor_si128(hi, _mm_shuffle_epi8(thi[2], idx));
    idx = _mm_srli_epi16(s, 12);  // high byte already 0
    lo = _mm_xor_si128(lo, _mm_shuffle_epi8(tlo[3], idx));
    hi = _mm_xor_si128(hi, _mm_shuffle_epi8(thi[3], idx));
    __m128i prod = _mm_xor_si128(lo, _mm_slli_epi16(hi, 8));
    if constexpr (Accumulate)
      prod = _mm_xor_si128(
          prod, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), prod);
  }
  if (i < n) mul_scalar<Accumulate>(dst + i, src + i, coeff, n - i);
}

template <bool Accumulate>
__attribute__((target("avx2"))) void mul_avx2(word* dst, const word* src,
                                              word coeff, std::size_t n) {
  if (n < nibble_min_words) { mul_scalar<Accumulate>(dst, src, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  __m256i tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo[k])));
    thi[k] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi[k])));
  }
  const __m256i mask = _mm256_set1_epi16(0x000f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i idx = _mm256_and_si256(s, mask);
    __m256i lo = _mm256_shuffle_epi8(tlo[0], idx);
    __m256i hi = _mm256_shuffle_epi8(thi[0], idx);
    idx = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
    lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(tlo[1], idx));
    hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(thi[1], idx));
    idx = _mm256_and_si256(_mm256_srli_epi16(s, 8), mask);
    lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(tlo[2], idx));
    hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(thi[2], idx));
    idx = _mm256_srli_epi16(s, 12);
    lo = _mm256_xor_si256(lo, _mm256_shuffle_epi8(tlo[3], idx));
    hi = _mm256_xor_si256(hi, _mm256_shuffle_epi8(thi[3], idx));
    __m256i prod = _mm256_xor_si256(lo, _mm256_slli_epi16(hi, 8));
    if constexpr (Accumulate)
      prod = _mm256_xor_si256(
          prod, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), prod);
  }
  if (i < n) mul_ssse3<Accumulate>(dst + i, src + i, coeff, n - i);
}

// --- GF(2) bit-matrix blocks for vgf2p8affineqb -----------------------------

/// Constants for building the four 8x8 blocks of "multiply by c" in vector
/// registers, and the vpermt2b indices that split and weave byte planes.
struct affine_constants {
  // Column j of the 16x16 matrix is c * x^j = (c << j mod 2^16) + o * x^16
  // with o = c >> (16 - j); o * x^16 reduces by o's four nibbles through
  // reduce[k][v] = v * x^{16+4k}.
  alignas(32) std::uint16_t reduce[4][16];
  alignas(32) std::uint16_t shift_left[16], shift_right[16];
  // Byte m of block qword q = 2 * out + in is byte `out` of column
  // 8 * in + 7 - m: the block with input bits as rows, in reverse order.
  alignas(32) std::uint8_t pick_blocks[32];
  // vpermt2b indices over a 128-byte (a, b) pair, index bit 6 selecting b:
  // even bytes (the low bytes of 64 words) and odd bytes form the two
  // planes; weave puts plane bytes k and 64 + k back side by side.
  alignas(64) std::uint8_t lo_plane[64], hi_plane[64];
  alignas(64) std::uint8_t weave_first[64], weave_second[64];

  constexpr affine_constants()
      : reduce(), shift_left(), shift_right(), pick_blocks(), lo_plane(),
        hi_plane(), weave_first(), weave_second() {
    for (int k = 0; k < 4; ++k)
      for (unsigned v = 0; v < 16; ++v) {
        std::uint32_t x = v;
        for (int step = 0; step < 16 + 4 * k; ++step) {
          x <<= 1;
          if (x & 0x10000) x ^= 0x1100B;
        }
        reduce[k][v] = static_cast<std::uint16_t>(x);
      }
    for (int j = 0; j < 16; ++j) {
      shift_left[j] = static_cast<std::uint16_t>(j);
      shift_right[j] = static_cast<std::uint16_t>(16 - j);
    }
    for (int q = 0; q < 4; ++q)
      for (int m = 0; m < 8; ++m)
        pick_blocks[8 * q + m] =
            static_cast<std::uint8_t>(2 * (8 * (q & 1) + 7 - m) + (q >> 1));
    for (int k = 0; k < 64; ++k) {
      lo_plane[k] = static_cast<std::uint8_t>(2 * k);
      hi_plane[k] = static_cast<std::uint8_t>(2 * k + 1);
      weave_first[k] = static_cast<std::uint8_t>((k / 2) | (k & 1) << 6);
      weave_second[k] = static_cast<std::uint8_t>((32 + k / 2) | (k & 1) << 6);
    }
  }
};

constexpr affine_constants affine_k{};

template <class T>
const __m256i* as_m256(const T& array) {
  return reinterpret_cast<const __m256i*>(&array);
}

// Below this length the scalar loop beats the block build plus one masked
// 64-word step (~11 ns); measured crossover 12-20 words on an AVX-512 Xeon.
constexpr std::size_t affine_min_words = 16;

template <bool Accumulate>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vbmi,gfni"))) void
mul_avx512_gfni(word* dst, const word* src, word coeff, std::size_t n) {
  if (n < affine_min_words) { mul_scalar<Accumulate>(dst, src, coeff, n); return; }
  // The four 8x8 blocks, built in one vector: all sixteen columns at once,
  // then pick_blocks gathers each block transposed, and one affine against
  // the anti-diagonal matrix 0x0102040810204080 transposes all four back
  // into operand layout (output bit i from byte 7 - i).
  const __m256i c = _mm256_set1_epi16(static_cast<short>(coeff));
  const __m256i o = _mm256_srlv_epi16(c, _mm256_load_si256(as_m256(affine_k.shift_right)));
  __m256i cols = _mm256_sllv_epi16(c, _mm256_load_si256(as_m256(affine_k.shift_left)));
  cols = _mm256_ternarylogic_epi32(  // 0x96: three-way XOR
      cols, _mm256_permutexvar_epi16(o, _mm256_load_si256(as_m256(affine_k.reduce[0]))),
      _mm256_permutexvar_epi16(_mm256_srli_epi16(o, 4),
                               _mm256_load_si256(as_m256(affine_k.reduce[1]))),
      0x96);
  cols = _mm256_ternarylogic_epi32(
      cols,
      _mm256_permutexvar_epi16(_mm256_srli_epi16(o, 8),
                               _mm256_load_si256(as_m256(affine_k.reduce[2]))),
      _mm256_permutexvar_epi16(_mm256_srli_epi16(o, 12),
                               _mm256_load_si256(as_m256(affine_k.reduce[3]))),
      0x96);
  // The maskz permute and the store-then-broadcast stand in for the plain
  // permute and cast intrinsics, whose _mm*_undefined_* operand trips GCC
  // 12's -Wmaybe-uninitialized.
  alignas(32) std::uint64_t blocks[4];  // lo<-lo, lo<-hi, hi<-lo, hi<-hi
  _mm256_store_si256(
      reinterpret_cast<__m256i*>(blocks),
      _mm256_gf2p8affine_epi64_epi8(
          _mm256_set1_epi64x(0x0102040810204080ll),
          _mm256_maskz_permutexvar_epi8(
              ~__mmask32{0}, _mm256_load_si256(as_m256(affine_k.pick_blocks)), cols),
          0));
  const __m512i lo_lo = _mm512_set1_epi64(static_cast<long long>(blocks[0]));
  const __m512i lo_hi = _mm512_set1_epi64(static_cast<long long>(blocks[1]));
  const __m512i hi_lo = _mm512_set1_epi64(static_cast<long long>(blocks[2]));
  const __m512i hi_hi = _mm512_set1_epi64(static_cast<long long>(blocks[3]));
  const __m512i lo_plane = _mm512_load_si512(affine_k.lo_plane);
  const __m512i hi_plane = _mm512_load_si512(affine_k.hi_plane);
  const __m512i weave_first = _mm512_load_si512(affine_k.weave_first);
  const __m512i weave_second = _mm512_load_si512(affine_k.weave_second);
  for (std::size_t i = 0; i < n; i += 64) {
    // Full steps load and store all 2 x 32 words; the last partial step
    // masks the words past n, so it neither reads nor writes beyond the row.
    __mmask32 ka = ~__mmask32{0}, kb = ~__mmask32{0};
    if (const std::size_t left = n - i; left < 64) {
      ka = left >= 32 ? ka : static_cast<__mmask32>((1u << left) - 1);
      kb = left > 32 ? static_cast<__mmask32>((1u << (left - 32)) - 1) : 0;
    }
    const __m512i a = _mm512_maskz_loadu_epi16(ka, src + i);
    const __m512i b = _mm512_maskz_loadu_epi16(kb, src + i + 32);
    const __m512i s_lo = _mm512_permutex2var_epi8(a, lo_plane, b);
    const __m512i s_hi = _mm512_permutex2var_epi8(a, hi_plane, b);
    const __m512i p_lo =
        _mm512_xor_si512(_mm512_gf2p8affine_epi64_epi8(s_lo, lo_lo, 0),
                         _mm512_gf2p8affine_epi64_epi8(s_hi, lo_hi, 0));
    const __m512i p_hi =
        _mm512_xor_si512(_mm512_gf2p8affine_epi64_epi8(s_lo, hi_lo, 0),
                         _mm512_gf2p8affine_epi64_epi8(s_hi, hi_hi, 0));
    __m512i pa = _mm512_permutex2var_epi8(p_lo, weave_first, p_hi);
    __m512i pb = _mm512_permutex2var_epi8(p_lo, weave_second, p_hi);
    if constexpr (Accumulate) {
      pa = _mm512_xor_si512(pa, _mm512_maskz_loadu_epi16(ka, dst + i));
      pb = _mm512_xor_si512(pb, _mm512_maskz_loadu_epi16(kb, dst + i + 32));
    }
    _mm512_mask_storeu_epi16(dst + i, ka, pa);
    _mm512_mask_storeu_epi16(dst + i + 32, kb, pb);
  }
}

#endif  // NAB_GF_KERNELS_X86

#if NAB_GF_KERNELS_NEON

template <bool Accumulate>
void mul_neon(word* dst, const word* src, word coeff, std::size_t n) {
  if (n < nibble_min_words) { mul_scalar<Accumulate>(dst, src, coeff, n); return; }
  nibble_tables t;
  build_tables(coeff, t);
  uint8x16_t tlo[4], thi[4];
  for (int k = 0; k < 4; ++k) {
    tlo[k] = vld1q_u8(t.lo[k]);
    thi[k] = vld1q_u8(t.hi[k]);
  }
  const uint16x8_t mask = vdupq_n_u16(0x000f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t s = vld1q_u16(src + i);
    uint16x8_t idx = vandq_u16(s, mask);
    uint8x16_t lo = vqtbl1q_u8(tlo[0], vreinterpretq_u8_u16(idx));
    uint8x16_t hi = vqtbl1q_u8(thi[0], vreinterpretq_u8_u16(idx));
    idx = vandq_u16(vshrq_n_u16(s, 4), mask);
    lo = veorq_u8(lo, vqtbl1q_u8(tlo[1], vreinterpretq_u8_u16(idx)));
    hi = veorq_u8(hi, vqtbl1q_u8(thi[1], vreinterpretq_u8_u16(idx)));
    idx = vandq_u16(vshrq_n_u16(s, 8), mask);
    lo = veorq_u8(lo, vqtbl1q_u8(tlo[2], vreinterpretq_u8_u16(idx)));
    hi = veorq_u8(hi, vqtbl1q_u8(thi[2], vreinterpretq_u8_u16(idx)));
    idx = vshrq_n_u16(s, 12);
    lo = veorq_u8(lo, vqtbl1q_u8(tlo[3], vreinterpretq_u8_u16(idx)));
    hi = veorq_u8(hi, vqtbl1q_u8(thi[3], vreinterpretq_u8_u16(idx)));
    uint16x8_t prod = veorq_u16(vreinterpretq_u16_u8(lo),
                                vshlq_n_u16(vreinterpretq_u16_u8(hi), 8));
    if constexpr (Accumulate) prod = veorq_u16(prod, vld1q_u16(dst + i));
    vst1q_u16(dst + i, prod);
  }
  if (i < n) mul_scalar<Accumulate>(dst + i, src + i, coeff, n - i);
}

#endif  // NAB_GF_KERNELS_NEON

// --- backend selection ------------------------------------------------------

/// dst ^= coeff * src (axpy) and dst = coeff * src (scale, run in place).
using row_kernel = void (*)(word*, const word*, word, std::size_t);

struct kernels {
  gf_backend id;
  row_kernel axpy;
  row_kernel scale;
};

constexpr kernels k_scalar{gf_backend::scalar, mul_scalar<true>, mul_scalar<false>};
#if NAB_GF_KERNELS_X86
constexpr kernels k_ssse3{gf_backend::ssse3, mul_ssse3<true>, mul_ssse3<false>};
constexpr kernels k_avx2{gf_backend::avx2, mul_avx2<true>, mul_avx2<false>};
constexpr kernels k_avx512_gfni{gf_backend::avx512_gfni, mul_avx512_gfni<true>,
                                mul_avx512_gfni<false>};

bool cpu_has_avx512_gfni() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vbmi") &&
         __builtin_cpu_supports("gfni");
}
#endif
#if NAB_GF_KERNELS_NEON
constexpr kernels k_neon{gf_backend::neon, mul_neon<true>, mul_neon<false>};
#endif

/// The vtable for `b`, or nullptr when this build/CPU cannot run it.
const kernels* kernels_for(gf_backend b) {
  switch (b) {
    case gf_backend::scalar:
      return &k_scalar;
    case gf_backend::ssse3:
#if NAB_GF_KERNELS_X86
      if (__builtin_cpu_supports("ssse3")) return &k_ssse3;
#endif
      return nullptr;
    case gf_backend::avx2:
#if NAB_GF_KERNELS_X86
      if (__builtin_cpu_supports("avx2")) return &k_avx2;
#endif
      return nullptr;
    case gf_backend::avx512_gfni:
#if NAB_GF_KERNELS_X86
      if (cpu_has_avx512_gfni()) return &k_avx512_gfni;
#endif
      return nullptr;
    case gf_backend::neon:
#if NAB_GF_KERNELS_NEON
      return &k_neon;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const kernels* best_supported() {
  for (gf_backend b : {gf_backend::avx512_gfni, gf_backend::avx2,
                       gf_backend::ssse3, gf_backend::neon})
    if (const kernels* k = kernels_for(b)) return k;
  return &k_scalar;
}

const kernels* select_from_env() {
  if (const char* env = std::getenv("NAB_GF_BACKEND")) {
    // Unknown names, "auto", and backends this CPU lacks all fall back to
    // auto-detection — a CI matrix leg may name a set the runner is missing.
    for (gf_backend b : {gf_backend::scalar, gf_backend::ssse3, gf_backend::avx2,
                         gf_backend::avx512_gfni, gf_backend::neon})
      if (std::string_view(env) == gf2_16::backend_name(b))
        if (const kernels* k = kernels_for(b)) return k;
  }
  return best_supported();
}

std::atomic<const kernels*> g_kernels{nullptr};

const kernels* active() {
  const kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k != nullptr) return k;
  // Racing first calls compute the same answer from the same environment;
  // whichever store lands last is equivalent.
  k = select_from_env();
  g_kernels.store(k, std::memory_order_release);
  return k;
}

}  // namespace

gf_backend gf2_16::backend() { return active()->id; }

bool gf2_16::set_backend(gf_backend b) {
  const kernels* k = kernels_for(b);
  if (k == nullptr) return false;
  g_kernels.store(k, std::memory_order_release);
  return true;
}

const char* gf2_16::backend_name(gf_backend b) {
  switch (b) {
    case gf_backend::scalar: return "scalar";
    case gf_backend::ssse3: return "ssse3";
    case gf_backend::avx2: return "avx2";
    case gf_backend::avx512_gfni: return "avx512_gfni";
    case gf_backend::neon: return "neon";
  }
  return "unknown";
}

void gf2_16::axpy(value_type* dst, const value_type* src, value_type coeff,
                  std::size_t n) {
  // Words presented, counted before every early-out (see the header
  // contract) and per call, never per element — the ambient-collector check
  // must stay out of the word loop on this hot path.
  obs::count(obs::counter::gf_axpy_words, n);
  if (coeff == 0 || n == 0) return;
  active()->axpy(dst, src, coeff, n);
}

void gf2_16::scale(value_type* v, value_type coeff, std::size_t n) {
  obs::count(obs::counter::gf_scale_words, n);
  if (coeff == 1 || n == 0) return;
  if (coeff == 0) {
    std::memset(v, 0, n * sizeof(value_type));
    return;
  }
  active()->scale(v, v, coeff, n);
}

}  // namespace nab::gf
