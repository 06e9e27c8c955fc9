#include "nn/kernels/gemm_s8.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/kernels/pool.hpp"
#include "nn/kernels/workspace.hpp"
#include "obs/registry.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define AGEBO_S8_X86 1
#endif

namespace agebo::nn::kernels {

namespace {

// Register tile. MR matches the fp32 path; NR counts *columns* (each
// column is one s32 accumulator lane holding a 4-deep K dot product).
constexpr std::size_t MR = kTileRows;
constexpr std::size_t NR_MAX = 32;  // VNNI tier: two zmm accumulator columns

// Cache blocking. Int8 elements are 4x denser than fp32, so KC is 4x the
// fp32 path's 256 for the same L1 byte footprint of a B strip
// (KC x NR = 16 KiB at the VNNI width); a single K block then covers
// every layer width the search space can emit, keeping the staging-free
// tile writeback on the hot path. MC is a multiple of MR.
constexpr std::size_t MC = 96;
constexpr std::size_t KC = 1024;
constexpr std::size_t NC = 512;  // multiple of every NR the dispatcher picks

inline std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

inline std::size_t k_groups(std::size_t kc) { return (kc + 3) / 4; }

// ---- packing ---------------------------------------------------------
// Both packers emit the layout the 4-way dot-product instructions want:
// K grouped in 4s, so each 4-byte lane of a strip is one column's (B) or
// one row's (A) next four K values. Edge rows/columns/K-tails are padded
// with zeros; B's zero padding makes the A padding value irrelevant
// (0 * anything contributes nothing to the s32 accumulator).

// Vectorized row quantization (one fp32 row -> one contiguous u8 row).
// Must be bit-identical to quantize_act: cvtps_epi32 rounds to nearest
// even exactly like lrintf under the default rounding mode, and the
// clamp/zero-point steps are the same integer ops lane-wise.
using QuantRowFn = void (*)(const float*, std::size_t, float, std::int32_t,
                            std::uint8_t*);

void quant_row_scalar(const float* src, std::size_t kc, float inv_scale,
                      std::int32_t zp, std::uint8_t* dst) {
  for (std::size_t kk = 0; kk < kc; ++kk) {
    dst[kk] = quantize_act(src[kk], inv_scale, zp);
  }
}

#if defined(AGEBO_S8_X86)

[[gnu::target("avx2")]] void quant_row_avx2(const float* src, std::size_t kc,
                                            float inv_scale, std::int32_t zp,
                                            std::uint8_t* dst) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256i vzp = _mm256_set1_epi32(zp);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(127);
  std::size_t kk = 0;
  for (; kk + 8 <= kc; kk += 8) {
    __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(
        _mm256_loadu_ps(src + kk), vinv));
    q = _mm256_min_epi32(_mm256_max_epi32(_mm256_add_epi32(q, vzp), zero), hi);
    // q fits [0, 127]: truncating byte extraction is exact.
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), q);
    for (int t = 0; t < 8; ++t) dst[kk + t] = static_cast<std::uint8_t>(lanes[t]);
  }
  for (; kk < kc; ++kk) dst[kk] = quantize_act(src[kk], inv_scale, zp);
}

[[gnu::target("avx512f,avx512bw,avx512vl")]] void quant_row_avx512(
    const float* src,
                                                 std::size_t kc,
                                                 float inv_scale,
                                                 std::int32_t zp,
                                                 std::uint8_t* dst) {
  const __m512 vinv = _mm512_set1_ps(inv_scale);
  const __m512i vzp = _mm512_set1_epi32(zp);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i hi = _mm512_set1_epi32(127);
  std::size_t kk = 0;
  for (; kk + 16 <= kc; kk += 16) {
    __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(
        _mm512_loadu_ps(src + kk), vinv));
    q = _mm512_min_epi32(_mm512_max_epi32(_mm512_add_epi32(q, vzp), zero), hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + kk),
                     _mm512_cvtepi32_epi8(q));
  }
  if (kk < kc) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (kc - kk)) - 1);
    __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(
        _mm512_maskz_loadu_ps(tail, src + kk), vinv));
    q = _mm512_min_epi32(_mm512_max_epi32(_mm512_add_epi32(q, vzp), zero), hi);
    _mm_mask_storeu_epi8(dst + kk, tail, _mm512_cvtepi32_epi8(q));
  }
}

#endif  // AGEBO_S8_X86

// A block (mc x kc) starting at row i0 / col p0 of the fp32 operand,
// quantized to u8 on the way in. Strip layout: for rows [i, i+MR), byte
// (g, r, t) lives at strip[(g * MR + r) * 4 + t] where kk = 4g + t.
// Quantization runs vectorized into a contiguous row staging buffer
// (`qrow`, >= kc bytes), then a cheap byte scatter fills the strips.
void pack_a_q(const float* a, std::size_t lda, std::size_t i0, std::size_t p0,
              std::size_t mc, std::size_t kc, float inv_scale, std::int32_t zp,
              std::uint8_t* ap, QuantRowFn quant_row, std::uint8_t* qrow) {
  const std::size_t kg = k_groups(kc);
  const std::size_t kpad = kg * 4;
  for (std::size_t i = 0; i < mc; i += MR) {
    const std::size_t ib = std::min(MR, mc - i);
    std::uint8_t* dst = ap + i * kg * 4;  // strip stride = kg * MR * 4
    for (std::size_t r = 0; r < ib; ++r) {
      quant_row(a + (i0 + i + r) * lda + p0, kc, inv_scale, zp, qrow);
      for (std::size_t kk = 0; kk < kc; ++kk) {
        dst[((kk >> 2) * MR + r) * 4 + (kk & 3)] = qrow[kk];
      }
      for (std::size_t kk = kc; kk < kpad; ++kk) {
        dst[((kk >> 2) * MR + r) * 4 + (kk & 3)] = 0;
      }
    }
    for (std::size_t r = ib; r < MR; ++r) {
      for (std::size_t kk = 0; kk < kpad; ++kk) {
        dst[((kk >> 2) * MR + r) * 4 + (kk & 3)] = 0;
      }
    }
  }
}

// B block (kc x nc) of the already-quantized s8 weight matrix, starting at
// row p0 / col j0. Strip layout: for cols [j, j+nr), byte (g, jr, t) lives
// at strip[(g * nr + jr) * 4 + t].
void pack_b_q(const std::int8_t* b, std::size_t ldb, std::size_t p0,
              std::size_t j0, std::size_t kc, std::size_t nc, std::size_t nr,
              std::int8_t* bp) {
  const std::size_t kg = k_groups(kc);
  const std::size_t kpad = kg * 4;
  for (std::size_t j = 0; j < nc; j += nr) {
    const std::size_t jb = std::min(nr, nc - j);
    std::int8_t* dst = bp + j * kg * 4;  // strip stride = kg * nr * 4
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const std::int8_t* src = b + (p0 + kk) * ldb + j0 + j;
      for (std::size_t jr = 0; jr < jb; ++jr) {
        dst[((kk >> 2) * nr + jr) * 4 + (kk & 3)] = src[jr];
      }
      for (std::size_t jr = jb; jr < nr; ++jr) {
        dst[((kk >> 2) * nr + jr) * 4 + (kk & 3)] = 0;
      }
    }
    for (std::size_t kk = kc; kk < kpad; ++kk) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        dst[((kk >> 2) * nr + jr) * 4 + (kk & 3)] = 0;
      }
    }
  }
}

// ---- microkernels ----------------------------------------------------
// MR x NR s32 tile over one K block. Integer accumulation is exact, so
// every tier computes identical results (see the header's 7-bit argument
// for why the AVX2 pairwise s16 step cannot saturate).

using MicroFn = void (*)(std::size_t, const std::uint8_t*, const std::int8_t*,
                         std::int32_t*);

inline std::int32_t a_dword(const std::uint8_t* ap, std::size_t idx) {
  std::int32_t v;
  std::memcpy(&v, ap + idx * 4, 4);
  return v;
}

// Scalar/SSE2 baseline reference tier, NR = 8.
void micro_s8_scalar(std::size_t kg, const std::uint8_t* ap,
                     const std::int8_t* bp, std::int32_t* acc) {
  constexpr std::size_t NR = 8;
  for (std::size_t x = 0; x < MR * NR; ++x) acc[x] = 0;
  for (std::size_t g = 0; g < kg; ++g) {
    const std::int8_t* brow = bp + g * NR * 4;
    const std::uint8_t* arow = ap + g * MR * 4;
    for (std::size_t r = 0; r < MR; ++r) {
      const std::uint8_t* av = arow + r * 4;
      std::int32_t* crow = acc + r * NR;
      for (std::size_t j = 0; j < NR; ++j) {
        const std::int8_t* bv = brow + j * 4;
        crow[j] += static_cast<std::int32_t>(av[0]) * bv[0] +
                   static_cast<std::int32_t>(av[1]) * bv[1] +
                   static_cast<std::int32_t>(av[2]) * bv[2] +
                   static_cast<std::int32_t>(av[3]) * bv[3];
      }
    }
  }
}

#if defined(AGEBO_S8_X86)

// AVX2 tier, NR = 16 (two ymm accumulator columns per row): maddubs
// (u8 x s8 -> pairwise s16) + madd (s16 pairs -> s32) gives one 4-deep dot
// product per dword lane. 12 accumulators + 2 B strips + 1 broadcast fit
// the 16 ymm registers.
[[gnu::target("avx2")]] void micro_s8_avx2(std::size_t kg,
                                           const std::uint8_t* ap,
                                           const std::int8_t* bp,
                                           std::int32_t* acc) {
  constexpr std::size_t NR = 16;
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i c0[MR];
  __m256i c1[MR];
  for (std::size_t r = 0; r < MR; ++r) {
    c0[r] = _mm256_setzero_si256();
    c1[r] = _mm256_setzero_si256();
  }
  for (std::size_t g = 0; g < kg; ++g) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + g * NR * 4));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + g * NR * 4 + 32));
    const std::uint8_t* arow = ap + g * MR * 4;
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256i a = _mm256_set1_epi32(a_dword(arow, r));
      c0[r] = _mm256_add_epi32(
          c0[r], _mm256_madd_epi16(_mm256_maddubs_epi16(a, b0), ones));
      c1[r] = _mm256_add_epi32(
          c1[r], _mm256_madd_epi16(_mm256_maddubs_epi16(a, b1), ones));
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * NR), c0[r]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * NR + 8), c1[r]);
  }
}

// AVX-512 VNNI tier, NR = 32 (two zmm accumulator columns per row):
// vpdpbusd fuses the whole u8 x s8 4-deep dot product into the s32
// accumulator, no intermediate s16 stage at all.
[[gnu::target("avx512vnni,avx512bw,avx512f")]] void micro_s8_vnni(
    std::size_t kg, const std::uint8_t* ap, const std::int8_t* bp,
    std::int32_t* acc) {
  constexpr std::size_t NR = 32;
  __m512i c0[MR];
  __m512i c1[MR];
  for (std::size_t r = 0; r < MR; ++r) {
    c0[r] = _mm512_setzero_si512();
    c1[r] = _mm512_setzero_si512();
  }
  for (std::size_t g = 0; g < kg; ++g) {
    const __m512i b0 = _mm512_loadu_si512(bp + g * NR * 4);
    const __m512i b1 = _mm512_loadu_si512(bp + g * NR * 4 + 64);
    const std::uint8_t* arow = ap + g * MR * 4;
    for (std::size_t r = 0; r < MR; ++r) {
      const __m512i a = _mm512_set1_epi32(a_dword(arow, r));
      c0[r] = _mm512_dpbusd_epi32(c0[r], a, b0);
      c1[r] = _mm512_dpbusd_epi32(c1[r], a, b1);
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    _mm512_storeu_si512(acc + r * NR, c0[r]);
    _mm512_storeu_si512(acc + r * NR + 16, c1[r]);
  }
}

#endif  // AGEBO_S8_X86

// One dequantized output element. Shared (inline, identical op order)
// between the tile writeback and the naive reference so the two are
// bitwise comparable.
inline float dequant_one(std::int32_t q, std::size_t j,
                         const QuantEpilogue& ep) {
  float v = static_cast<float>(q - ep.comp[j]) * ep.dq_scale[j];
  if (ep.bias != nullptr) v += ep.bias[j];
  return v;
}

// Hot-path tile writeback (single K block, identity/relu): dequantize the
// s32 register tile straight into the fp32 C tile, vectorized. Must stay
// bit-identical to the scalar write_tile_s8 / dequant_one sequence: each
// lane performs float(q - comp) * dq (+ bias), then relu as max(v, 0) —
// the same elementwise op order, and maxps matches `v > 0 ? v : 0` on
// NaN/signed-zero inputs.
using EpiFn = void (*)(float*, std::size_t, std::size_t, std::size_t,
                       std::size_t, const std::int32_t*, const QuantEpilogue&,
                       std::size_t, bool);

#if defined(AGEBO_S8_X86)

[[gnu::target("avx2")]] void epi_tile_avx2(float* c, std::size_t ldc,
                                           std::size_t mr, std::size_t nr_eff,
                                           std::size_t acc_stride,
                                           const std::int32_t* acc,
                                           const QuantEpilogue& ep,
                                           std::size_t j0, bool relu) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t ir = 0; ir < mr; ++ir) {
    const std::int32_t* arow = acc + ir * acc_stride;
    float* crow = c + ir * ldc;
    std::size_t jr = 0;
    for (; jr + 8 <= nr_eff; jr += 8) {
      const __m256i q = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(arow + jr));
      const __m256i comp = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ep.comp + j0 + jr));
      __m256 v = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(q, comp)),
                               _mm256_loadu_ps(ep.dq_scale + j0 + jr));
      if (ep.bias != nullptr) {
        v = _mm256_add_ps(v, _mm256_loadu_ps(ep.bias + j0 + jr));
      }
      if (relu) v = _mm256_max_ps(v, zero);
      if (ep.accumulate) v = _mm256_add_ps(_mm256_loadu_ps(crow + jr), v);
      _mm256_storeu_ps(crow + jr, v);
    }
    for (; jr < nr_eff; ++jr) {
      float v = dequant_one(arow[jr], j0 + jr, ep);
      if (relu) v = v > 0.0f ? v : 0.0f;
      crow[jr] = ep.accumulate ? crow[jr] + v : v;
    }
  }
}

[[gnu::target("avx512f")]] void epi_tile_avx512(
    float* c, std::size_t ldc, std::size_t mr, std::size_t nr_eff,
    std::size_t acc_stride, const std::int32_t* acc, const QuantEpilogue& ep,
    std::size_t j0, bool relu) {
  const __m512 zero = _mm512_setzero_ps();
  for (std::size_t ir = 0; ir < mr; ++ir) {
    const std::int32_t* arow = acc + ir * acc_stride;
    float* crow = c + ir * ldc;
    std::size_t jr = 0;
    for (; jr + 16 <= nr_eff; jr += 16) {
      const __m512i q = _mm512_loadu_si512(arow + jr);
      const __m512i comp = _mm512_loadu_si512(ep.comp + j0 + jr);
      __m512 v = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(q, comp)),
                               _mm512_loadu_ps(ep.dq_scale + j0 + jr));
      if (ep.bias != nullptr) {
        v = _mm512_add_ps(v, _mm512_loadu_ps(ep.bias + j0 + jr));
      }
      if (relu) v = _mm512_max_ps(v, zero);
      if (ep.accumulate) v = _mm512_add_ps(_mm512_loadu_ps(crow + jr), v);
      _mm512_storeu_ps(crow + jr, v);
    }
    if (jr < nr_eff) {
      const __mmask16 tail = static_cast<__mmask16>((1u << (nr_eff - jr)) - 1);
      const __m512i q = _mm512_maskz_loadu_epi32(tail, arow + jr);
      const __m512i comp = _mm512_maskz_loadu_epi32(tail, ep.comp + j0 + jr);
      __m512 v = _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(q, comp)),
          _mm512_maskz_loadu_ps(tail, ep.dq_scale + j0 + jr));
      if (ep.bias != nullptr) {
        v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(tail, ep.bias + j0 + jr));
      }
      if (relu) v = _mm512_max_ps(v, zero);
      if (ep.accumulate) {
        v = _mm512_add_ps(_mm512_maskz_loadu_ps(tail, crow + jr), v);
      }
      _mm512_mask_storeu_ps(crow + jr, tail, v);
    }
  }
}

#endif  // AGEBO_S8_X86

struct S8Config {
  MicroFn micro;
  std::size_t nr;
  Int8Isa isa;
  QuantRowFn quant_row;
  EpiFn epi;  // nullptr = always use the scalar writeback
};

Int8Isa g_forced = Int8Isa::kAuto;  // test hook; see set_int8_isa

// Pick the widest tier the CPU supports, capped at the forced tier. A
// forced tier the hardware lacks falls through to the next one down.
S8Config select_s8_kernel(Int8Isa cap) {
#if defined(AGEBO_S8_X86)
  const bool allow_vnni = cap == Int8Isa::kAuto || cap == Int8Isa::kVnni;
  if (allow_vnni && __builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512f")) {
    return {micro_s8_vnni, 32, Int8Isa::kVnni, quant_row_avx512,
            epi_tile_avx512};
  }
  const bool allow_avx2 = cap != Int8Isa::kScalar;
  if (allow_avx2 && __builtin_cpu_supports("avx2")) {
    return {micro_s8_avx2, 16, Int8Isa::kAvx2, quant_row_avx2, epi_tile_avx2};
  }
#else
  (void)cap;
#endif
  return {micro_s8_scalar, 8, Int8Isa::kScalar, quant_row_scalar, nullptr};
}

const S8Config& s8_config() {
  static const S8Config kAutoCfg = select_s8_kernel(Int8Isa::kAuto);
  if (g_forced == Int8Isa::kAuto) return kAutoCfg;
  // Forced tiers are a cold test-only path; re-select per call so the
  // override can change between calls.
  static S8Config forced_cfg;
  forced_cfg = select_s8_kernel(g_forced);
  return forced_cfg;
}

// Tile writeback. While K blocks remain (`!last`), the raw s32 partial
// sums park in the csum staging panel; the final K block adds the tail,
// dequantizes, and applies bias + activation into the fp32 C tile. When k
// fits one K block (the hot path) csum is null and acc flows straight out.
void write_tile_s8(float* c, std::size_t ldc, std::int32_t* csum,
                   std::size_t ldcs, std::size_t mr, std::size_t nr_eff,
                   std::size_t acc_stride, const std::int32_t* acc, bool first,
                   bool last, const QuantEpilogue& ep, std::size_t j0) {
  for (std::size_t ir = 0; ir < mr; ++ir) {
    const std::int32_t* arow = acc + ir * acc_stride;
    if (!last) {
      std::int32_t* srow = csum + ir * ldcs;
      if (first) {
        for (std::size_t jr = 0; jr < nr_eff; ++jr) srow[jr] = arow[jr];
      } else {
        for (std::size_t jr = 0; jr < nr_eff; ++jr) srow[jr] += arow[jr];
      }
      continue;
    }
    const std::int32_t* srow = csum != nullptr ? csum + ir * ldcs : nullptr;
    float* crow = c + ir * ldc;
    for (std::size_t jr = 0; jr < nr_eff; ++jr) {
      const std::int32_t q = arow[jr] + (srow != nullptr ? srow[jr] : 0);
      float v = dequant_one(q, j0 + jr, ep);
      switch (ep.act) {
        case Activation::kIdentity:
          break;
        case Activation::kRelu:
          v = v > 0.0f ? v : 0.0f;
          break;
        default:
          v = activate_scalar(ep.act, v);
          break;
      }
      crow[jr] = ep.accumulate ? crow[jr] + v : v;
    }
  }
}

// k == 0 degenerates to "dequantized epilogue of an all-zero accumulator".
void epilogue_only_s8(std::size_t m, std::size_t n, float* c, std::size_t ldc,
                      const QuantEpilogue& ep) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) {
      const float v = activate_scalar(ep.act, dequant_one(0, j, ep));
      crow[j] = ep.accumulate ? crow[j] + v : v;
    }
  }
}

// Serial blocked int8 GEMM over the full [0, m) row range it is given.
// `prepacked`, when non-null, supplies the B panels in exactly the layout
// and (jc, pc) order this function would pack them, so the per-call B
// packing — the dominant overhead for a frozen model's constant weights —
// is skipped entirely.
void gemm_s8_serial(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, float a_inv_scale,
                    std::int32_t a_zp, const std::int8_t* wq, std::size_t ldb,
                    float* c, std::size_t ldc, const QuantEpilogue& ep,
                    const std::int8_t* prepacked) {
  const S8Config cfg = s8_config();
  const std::size_t nr = cfg.nr;
  Workspace::Scope scope(Workspace::tls());
  const std::size_t kc_max = std::min(k, KC);
  const std::size_t kg_max = k_groups(kc_max);
  // The Workspace hands out floats; the int8 panels reinterpret the same
  // 64-byte-aligned storage (1 float backs 4 packed bytes / 1 s32 lane).
  std::int8_t* bpack =
      prepacked != nullptr
          ? nullptr
          : reinterpret_cast<std::int8_t*>(
                scope.alloc(kg_max * round_up(std::min(n, NC), nr)));
  auto* apack = reinterpret_cast<std::uint8_t*>(
      scope.alloc(kg_max * round_up(std::min(m, MC), MR)));
  // Row staging for the vectorized activation quantizer (kc bytes).
  auto* qrow = reinterpret_cast<std::uint8_t*>(scope.alloc(kg_max));
  // Multi-K-block staging for the s32 partial sums (cold path: a single
  // K block covers k <= 1024, i.e. every search-space layer).
  std::int32_t* csum = nullptr;
  if (k > KC) {
    csum = reinterpret_cast<std::int32_t*>(scope.alloc(m * std::min(n, NC)));
  }
  alignas(64) std::int32_t acc[MR * NR_MAX];

  std::size_t boff = 0;  // running offset into the prepacked panels
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const std::size_t kg = k_groups(kc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      const std::int8_t* bblock;
      if (prepacked != nullptr) {
        bblock = prepacked + boff;
        boff += kg * round_up(nc, nr) * 4;
      } else {
        pack_b_q(wq, ldb, pc, jc, kc, nc, nr, bpack);
        bblock = bpack;
      }
      // Single-K-block tiles with an identity/relu tail take the
      // vectorized writeback; everything else (multi-K staging, exotic
      // activations, scalar tier) falls back to the scalar path.
      const bool fast_epi =
          cfg.epi != nullptr && csum == nullptr &&
          (ep.act == Activation::kIdentity || ep.act == Activation::kRelu);
      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mc = std::min(MC, m - ic);
        pack_a_q(a, lda, ic, pc, mc, kc, a_inv_scale, a_zp, apack,
                 cfg.quant_row, qrow);
        for (std::size_t jr = 0; jr < nc; jr += nr) {
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            cfg.micro(kg, apack + ir * kg * 4, bblock + jr * kg * 4, acc);
            if (fast_epi) {
              cfg.epi(c + (ic + ir) * ldc + jc + jr, ldc,
                      std::min(MR, mc - ir), std::min(nr, nc - jr), nr, acc,
                      ep, jc + jr, ep.act == Activation::kRelu);
            } else {
              write_tile_s8(c + (ic + ir) * ldc + jc + jr, ldc,
                            csum != nullptr ? csum + (ic + ir) * nc + jr
                                            : nullptr,
                            nc, std::min(MR, mc - ir), std::min(nr, nc - jr),
                            nr, acc, first, last, ep, jc + jr);
            }
          }
        }
      }
    }
  }
}

}  // namespace

PackedWeightsS8 pack_weights_s8(const std::int8_t* wq, std::size_t ldb,
                                std::size_t k, std::size_t n) {
  const S8Config cfg = s8_config();
  PackedWeightsS8 pb;
  pb.k = k;
  pb.n = n;
  pb.nr = cfg.nr;
  if (k == 0 || n == 0) return pb;
  std::size_t total = 0;
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      total += k_groups(std::min(KC, k - pc)) * round_up(nc, cfg.nr) * 4;
    }
  }
  pb.data.resize(total);
  std::size_t off = 0;
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      pack_b_q(wq, ldb, pc, jc, kc, nc, cfg.nr, pb.data.data() + off);
      off += k_groups(kc) * round_up(nc, cfg.nr) * 4;
    }
  }
  return pb;
}

void gemm_u8s8(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, float a_inv_scale, std::int32_t a_zp,
               const std::int8_t* wq, std::size_t ldb, float* c,
               std::size_t ldc, const QuantEpilogue& ep,
               const PackedWeightsS8* packed) {
  obs::add_flops(2ull * m * n * k);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    epilogue_only_s8(m, n, c, ldc, ep);
    return;
  }
  // Honor the prepack only when it matches this call's shape and the
  // dispatched tier's strip width (a set_int8_isa override changes NR).
  const std::int8_t* prepacked = nullptr;
  if (packed != nullptr && !packed->empty() && packed->k == k &&
      packed->n == n && packed->nr == s8_config().nr) {
    prepacked = packed->data.data();
  }

  const std::size_t nthreads = max_threads();
  const bool small = m * n < kParallelFlopThreshold / (2 * k) || m < 2 * MR;
  if (nthreads <= 1 || small) {
    gemm_s8_serial(m, n, k, a, lda, a_inv_scale, a_zp, wq, ldb, c, ldc, ep,
                   prepacked);
    return;
  }

  // Disjoint M-ranges, one worker each; integer accumulation plus a fixed
  // elementwise epilogue order makes the result identical for any thread
  // count (same contract as the fp32 driver).
  const std::size_t nchunks = std::min(nthreads, (m + MR - 1) / MR);
  const std::size_t rows_per_chunk = round_up((m + nchunks - 1) / nchunks, MR);
  parallel_for(nchunks, [&](std::size_t chunk) {
    const std::size_t i0 = chunk * rows_per_chunk;
    if (i0 >= m) return;
    const std::size_t mc = std::min(rows_per_chunk, m - i0);
    gemm_s8_serial(mc, n, k, a + i0 * lda, lda, a_inv_scale, a_zp, wq, ldb,
                   c + i0 * ldc, ldc, ep, prepacked);
  });
}

void gemm_u8s8_naive(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, float a_inv_scale,
                     std::int32_t a_zp, const std::int8_t* wq, std::size_t ldb,
                     float* c, std::size_t ldc, const QuantEpilogue& ep) {
  std::vector<std::uint8_t> aq(k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::size_t kk = 0; kk < k; ++kk) {
      aq[kk] = quantize_act(arow[kk], a_inv_scale, a_zp);
    }
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(aq[kk]) *
               static_cast<std::int32_t>(wq[kk * ldb + j]);
      }
      float v = dequant_one(acc, j, ep);
      switch (ep.act) {
        case Activation::kIdentity:
          break;
        case Activation::kRelu:
          v = v > 0.0f ? v : 0.0f;
          break;
        default:
          v = activate_scalar(ep.act, v);
          break;
      }
      crow[j] = ep.accumulate ? crow[j] + v : v;
    }
  }
}

void set_int8_isa(Int8Isa isa) { g_forced = isa; }

Int8Isa active_int8_isa() { return s8_config().isa; }

const char* to_string(Int8Isa isa) {
  switch (isa) {
    case Int8Isa::kAuto:
      return "auto";
    case Int8Isa::kVnni:
      return "vnni";
    case Int8Isa::kAvx2:
      return "avx2";
    case Int8Isa::kScalar:
      return "scalar";
  }
  return "?";
}

}  // namespace agebo::nn::kernels
