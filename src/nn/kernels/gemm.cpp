#include "nn/kernels/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "nn/kernels/pool.hpp"
#include "nn/kernels/workspace.hpp"
#include "obs/registry.hpp"

namespace agebo::nn::kernels {

namespace {

// Register tile. The baseline NR tracks the widest vector the *build*
// targets (see the AGEBO_NATIVE CMake knob); at runtime the dispatcher
// below may select a wider-NR microkernel compiled for AVX2/AVX-512 via
// GCC target attributes, so a portable baseline binary still runs FMA
// kernels on hardware that has them.
constexpr std::size_t MR = kTileRows;
#if defined(__AVX512F__)
constexpr std::size_t NR_BASE = 32;
#elif defined(__AVX__)
constexpr std::size_t NR_BASE = 16;
#else
constexpr std::size_t NR_BASE = 8;
#endif
constexpr std::size_t NR_MAX = 32;

// Cache blocking: B panel (KC x NR strips) sized for L1/L2 residency, A
// block (MC x KC) for L2. The search-space layers (batch <= 1024, widths
// <= a few hundred) usually fit a single K block, so epilogues fuse
// directly into the tile writeback.
constexpr std::size_t MC = 120;  // multiple of MR
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 512;  // multiple of every NR the dispatcher picks

inline std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// ---- packing ---------------------------------------------------------
// Both packers emit the same layout the microkernel consumes: column
// strips of NR (B) / row strips of MR (A), K-major within a strip, edge
// strips zero-padded so the microkernel never branches on bounds.

// B block (kc x nc) starting at row p0 / col j0 of the logical K x N
// operand. trans=false: b is k x n row-major. trans=true: b is n x k
// (gemm_bt), so logical B(p, j) = b[j, p].
void pack_b(bool trans, const float* b, std::size_t ldb, std::size_t p0,
            std::size_t j0, std::size_t kc, std::size_t nc, std::size_t nr,
            float* bp) {
  for (std::size_t j = 0; j < nc; j += nr) {
    const std::size_t jb = std::min(nr, nc - j);
    float* dst = bp + j * kc;
    if (!trans) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* src = b + (p0 + kk) * ldb + j0 + j;
        float* d = dst + kk * nr;
        for (std::size_t jr = 0; jr < jb; ++jr) d[jr] = src[jr];
        for (std::size_t jr = jb; jr < nr; ++jr) d[jr] = 0.0f;
      }
    } else {
      for (std::size_t jr = 0; jr < jb; ++jr) {
        const float* src = b + (j0 + j + jr) * ldb + p0;
        for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * nr + jr] = src[kk];
      }
      for (std::size_t jr = jb; jr < nr; ++jr) {
        for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * nr + jr] = 0.0f;
      }
    }
  }
}

// A block (mc x kc) starting at row i0 / col p0 of the logical M x K
// operand. trans=false: a is m x k row-major. trans=true: a is k x m
// (gemm_at), so logical A(i, p) = a[p, i].
void pack_a(bool trans, const float* a, std::size_t lda, std::size_t i0,
            std::size_t p0, std::size_t mc, std::size_t kc, float* ap) {
  for (std::size_t i = 0; i < mc; i += MR) {
    const std::size_t ib = std::min(MR, mc - i);
    float* dst = ap + i * kc;
    if (!trans) {
      for (std::size_t ir = 0; ir < ib; ++ir) {
        const float* src = a + (i0 + i + ir) * lda + p0;
        for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * MR + ir] = src[kk];
      }
      for (std::size_t ir = ib; ir < MR; ++ir) {
        for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * MR + ir] = 0.0f;
      }
    } else {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (p0 + kk) * lda + i0 + i;
        float* d = dst + kk * MR;
        for (std::size_t ir = 0; ir < ib; ++ir) d[ir] = src[ir];
        for (std::size_t ir = ib; ir < MR; ++ir) d[ir] = 0.0f;
      }
    }
  }
}

// ---- microkernel -----------------------------------------------------

// MR x NR tile accumulated over one K block. K ascends exactly like the
// naive reference, so blocked results agree with it to rounding (FMA
// variants contract the multiply-add, which only tightens the rounding).
// The body is instantiated once per ISA tier; always_inline pulls it into
// the target-attributed wrappers so each copy vectorizes at that tier's
// register width.
template <std::size_t NR_T>
[[gnu::always_inline]] inline void micro_body(std::size_t kc,
                                              const float* __restrict ap,
                                              const float* __restrict bp,
                                              float* __restrict acc) {
  for (std::size_t x = 0; x < MR * NR_T; ++x) acc[x] = 0.0f;
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* __restrict brow = bp + kk * NR_T;
    const float* __restrict arow = ap + kk * MR;
    for (std::size_t ir = 0; ir < MR; ++ir) {
      const float av = arow[ir];
      float* __restrict crow = acc + ir * NR_T;
#pragma omp simd
      for (std::size_t jr = 0; jr < NR_T; ++jr) crow[jr] += av * brow[jr];
    }
  }
}

void micro_base(std::size_t kc, const float* ap, const float* bp, float* acc) {
  micro_body<NR_BASE>(kc, ap, bp, acc);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__AVX512F__)
#if !defined(__AVX2__) || !defined(__FMA__)
[[gnu::target("avx2,fma")]] void micro_avx2(std::size_t kc, const float* ap,
                                            const float* bp, float* acc) {
  micro_body<16>(kc, ap, bp, acc);
}
#endif
[[gnu::target("avx512f,fma")]] void micro_avx512(std::size_t kc,
                                                 const float* ap,
                                                 const float* bp, float* acc) {
  micro_body<32>(kc, ap, bp, acc);
}
#endif

using MicroFn = void (*)(std::size_t, const float*, const float*, float*);

struct KernelConfig {
  MicroFn micro;
  std::size_t nr;
};

// Pick the widest microkernel the CPU can run. Checked once; the baseline
// build (no AGEBO_NATIVE) still reaches AVX2/AVX-512 FMA through this.
KernelConfig select_kernel() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    return {micro_avx512, 32};
  }
#if !defined(__AVX2__) || !defined(__FMA__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {micro_avx2, 16};
  }
#endif
#endif
  return {micro_base, NR_BASE};
}

const KernelConfig& kernel_config() {
  static const KernelConfig cfg = select_kernel();
  return cfg;
}

// Tile writeback with the optional fused epilogue. `load_c` is true when
// C already holds a partial sum (earlier K block) or the caller asked to
// accumulate. The epilogue only ever runs on the final K block.
void write_tile(float* c, std::size_t ldc, std::size_t mr, std::size_t nr,
                std::size_t acc_stride, const float* acc, bool load_c,
                const Epilogue* ep, const float* bias, float* pre,
                std::size_t ldpre) {
  for (std::size_t ir = 0; ir < mr; ++ir) {
    float* crow = c + ir * ldc;
    const float* arow = acc + ir * acc_stride;
    if (ep == nullptr) {
      if (load_c) {
#pragma omp simd
        for (std::size_t jr = 0; jr < nr; ++jr) crow[jr] += arow[jr];
      } else {
#pragma omp simd
        for (std::size_t jr = 0; jr < nr; ++jr) crow[jr] = arow[jr];
      }
      continue;
    }
    float* prow = pre ? pre + ir * ldpre : nullptr;
    switch (ep->act) {
      case Activation::kIdentity:
        for (std::size_t jr = 0; jr < nr; ++jr) {
          float v = arow[jr] + (load_c ? crow[jr] : 0.0f);
          if (bias) v += bias[jr];
          if (prow) prow[jr] = v;
          crow[jr] = v;
        }
        break;
      case Activation::kRelu:
        for (std::size_t jr = 0; jr < nr; ++jr) {
          float v = arow[jr] + (load_c ? crow[jr] : 0.0f);
          if (bias) v += bias[jr];
          if (prow) prow[jr] = v;
          crow[jr] = v > 0.0f ? v : 0.0f;
        }
        break;
      default:  // swish / tanh / sigmoid: expf dominates anyway
        for (std::size_t jr = 0; jr < nr; ++jr) {
          float v = arow[jr] + (load_c ? crow[jr] : 0.0f);
          if (bias) v += bias[jr];
          if (prow) prow[jr] = v;
          crow[jr] = activate_scalar(ep->act, v);
        }
        break;
    }
  }
}

// k == 0 degenerates to "epilogue of an all-zero product".
void epilogue_only(std::size_t m, std::size_t n, float* c, std::size_t ldc,
                   bool accumulate, const Epilogue* ep) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    float* prow = ep && ep->pre_act ? ep->pre_act + i * ldc : nullptr;
    for (std::size_t j = 0; j < n; ++j) {
      float v = accumulate ? crow[j] : 0.0f;
      if (ep && ep->bias) v += ep->bias[j];
      if (prow) prow[j] = v;
      crow[j] = ep ? activate_scalar(ep->act, v) : v;
    }
  }
}

// Serial blocked GEMM over the full [0, m) row range it is given.
void gemm_serial(bool a_trans, bool b_trans, std::size_t m, std::size_t n,
                 std::size_t k, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 bool accumulate, const Epilogue* ep) {
  const KernelConfig& cfg = kernel_config();
  const std::size_t nr = cfg.nr;
  Workspace::Scope scope(Workspace::tls());
  const std::size_t kc_max = std::min(k, KC);
  float* bpack = scope.alloc(kc_max * round_up(std::min(n, NC), nr));
  float* apack = scope.alloc(round_up(std::min(m, MC), MR) * kc_max);
  alignas(64) float acc[MR * NR_MAX];

  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      pack_b(b_trans, b, ldb, pc, jc, kc, nc, nr, bpack);
      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mc = std::min(MC, m - ic);
        pack_a(a_trans, a, lda, ic, pc, mc, kc, apack);
        for (std::size_t jr = 0; jr < nc; jr += nr) {
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            cfg.micro(kc, apack + ir * kc, bpack + jr * kc, acc);
            const Epilogue* tile_ep = last ? ep : nullptr;
            write_tile(c + (ic + ir) * ldc + jc + jr, ldc,
                       std::min(MR, mc - ir), std::min(nr, nc - jr), nr, acc,
                       accumulate || !first, tile_ep,
                       tile_ep && tile_ep->bias ? tile_ep->bias + jc + jr
                                                : nullptr,
                       tile_ep && tile_ep->pre_act
                           ? tile_ep->pre_act + (ic + ir) * ldc + jc + jr
                           : nullptr,
                       ldc);
          }
        }
      }
    }
  }
}

void gemm_driver(bool a_trans, bool b_trans, std::size_t m, std::size_t n,
                 std::size_t k, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 bool accumulate, const Epilogue* ep) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    epilogue_only(m, n, c, ldc, accumulate, ep);
    return;
  }

  const std::size_t nthreads = max_threads();
  const bool small = m * n < kParallelFlopThreshold / (2 * k) || m < 2 * MR;
  if (nthreads <= 1 || small) {
    gemm_serial(a_trans, b_trans, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
                ep);
    return;
  }

  // Split the M dimension into disjoint row ranges (multiples of MR so
  // every chunk sees tidy tiles). Each chunk's rows are computed by
  // exactly one worker with the fixed ascending-K order, so the result is
  // bit-identical for any thread count or schedule.
  const std::size_t nchunks = std::min(nthreads, (m + MR - 1) / MR);
  const std::size_t rows_per_chunk = round_up((m + nchunks - 1) / nchunks, MR);
  parallel_for(nchunks, [&](std::size_t chunk) {
    const std::size_t i0 = chunk * rows_per_chunk;
    if (i0 >= m) return;
    const std::size_t mc = std::min(rows_per_chunk, m - i0);
    const float* a_sub = a_trans ? a + i0 : a + i0 * lda;
    Epilogue sub_ep;
    const Epilogue* ep_sub = nullptr;
    if (ep) {
      sub_ep = *ep;
      if (sub_ep.pre_act) sub_ep.pre_act += i0 * ldc;
      ep_sub = &sub_ep;
    }
    gemm_serial(a_trans, b_trans, mc, n, k, a_sub, lda, b, ldb, c + i0 * ldc,
                ldc, accumulate, ep_sub);
  });
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, const float* b, std::size_t ldb, float* c,
          std::size_t ldc, bool accumulate, const Epilogue* ep) {
  obs::add_flops(2ull * m * n * k);
  gemm_driver(false, false, m, n, k, a, lda, b, ldb, c, ldc, accumulate, ep);
}

void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate, const Epilogue* ep) {
  obs::add_flops(2ull * m * n * k);
  gemm_driver(false, true, m, n, k, a, lda, b, ldb, c, ldc, accumulate, ep);
}

void gemm_at(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate, const Epilogue* ep) {
  obs::add_flops(2ull * m * n * k);
  gemm_driver(true, false, m, n, k, a, lda, b, ldb, c, ldc, accumulate, ep);
}

void act_grad_mul(Activation act, const float* z, const float* g, float* dz,
                  std::size_t count) {
  switch (act) {
    case Activation::kIdentity:
      if (dz != g) std::memcpy(dz, g, count * sizeof(float));
      return;
    case Activation::kRelu:
#pragma omp simd
      for (std::size_t i = 0; i < count; ++i) {
        dz[i] = z[i] > 0.0f ? g[i] : 0.0f;
      }
      return;
    default:
      for (std::size_t i = 0; i < count; ++i) {
        dz[i] = g[i] * activate_grad_scalar(act, z[i]);
      }
      return;
  }
}

}  // namespace agebo::nn::kernels
