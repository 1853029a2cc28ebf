#include "solver/simd/block_kernels.h"

#include <cstddef>

#include "base/check.h"
#include "base/numerics_annotations.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#define NEURO_SIMD_X86 1
#endif

#if defined(__aarch64__)

#include <arm_neon.h>

#define NEURO_SIMD_NEON 1
#endif

namespace neuro::solver::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar fallbacks. Fixed association order: bit-identical run-to-run, on
// every platform, regardless of what the CPU detection would pick.
// ---------------------------------------------------------------------------

NEURO_BITEXACT
void block3_sym_scalar(const double* valuesT, const std::int32_t* row_ptr,
                       const std::int32_t* cols, int nrows, const double* xg,
                       double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    const double* xn = xg + static_cast<std::size_t>(br) * 3U;
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const std::int32_t m = cols[p];
      const double* xm = xg + static_cast<std::size_t>(m) * 3U;
      // y_n += A x_m with the transposed layout A(r, c) = a[3c + r].
      acc0 += a[0] * xm[0];
      acc0 += a[3] * xm[1];
      acc0 += a[6] * xm[2];
      acc1 += a[1] * xm[0];
      acc1 += a[4] * xm[1];
      acc1 += a[7] * xm[2];
      acc2 += a[2] * xm[0];
      acc2 += a[5] * xm[1];
      acc2 += a[8] * xm[2];
      if (m != br) {
        // y_m += A^T x_n: each stored column dotted with x_n.
        double* ym = y + static_cast<std::size_t>(m) * 3U;
        ym[0] += a[0] * xn[0] + a[1] * xn[1] + a[2] * xn[2];
        ym[1] += a[3] * xn[0] + a[4] * xn[1] + a[5] * xn[2];
        ym[2] += a[6] * xn[0] + a[7] * xn[1] + a[8] * xn[2];
      }
    }
    const std::size_t out = static_cast<std::size_t>(br) * 3U;
    y[out + 0] += acc0;
    y[out + 1] += acc1;
    y[out + 2] += acc2;
  }
}

NEURO_BITEXACT
void block3_accum_scalar(const double* valuesT, const std::int32_t* row_ptr,
                         const std::int32_t* cols, int nrows, const double* xg,
                         double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const double* xb = xg + static_cast<std::size_t>(cols[p]) * 3U;
      acc0 += a[0] * xb[0];
      acc0 += a[3] * xb[1];
      acc0 += a[6] * xb[2];
      acc1 += a[1] * xb[0];
      acc1 += a[4] * xb[1];
      acc1 += a[7] * xb[2];
      acc2 += a[2] * xb[0];
      acc2 += a[5] * xb[1];
      acc2 += a[8] * xb[2];
    }
    const std::size_t out = static_cast<std::size_t>(br) * 3U;
    y[out + 0] += acc0;
    y[out + 1] += acc1;
    y[out + 2] += acc2;
  }
}

// ---------------------------------------------------------------------------
// SSE2 (x86-64 baseline): 2-lane columns, scalar third row.
// ---------------------------------------------------------------------------
#if defined(NEURO_SIMD_X86)

void block3_sym_sse2(const double* valuesT, const std::int32_t* row_ptr,
                     const std::int32_t* cols, int nrows, const double* xg,
                     double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    const double* xn = xg + static_cast<std::size_t>(br) * 3U;
    __m128d acc01 = _mm_setzero_pd();
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const std::int32_t m = cols[p];
      const double* xm = xg + static_cast<std::size_t>(m) * 3U;
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + 0), _mm_set1_pd(xm[0])));
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + 3), _mm_set1_pd(xm[1])));
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + 6), _mm_set1_pd(xm[2])));
      acc2 += a[2] * xm[0] + a[5] * xm[1] + a[8] * xm[2];
      if (m != br) {
        double* ym = y + static_cast<std::size_t>(m) * 3U;
        ym[0] += a[0] * xn[0] + a[1] * xn[1] + a[2] * xn[2];
        ym[1] += a[3] * xn[0] + a[4] * xn[1] + a[5] * xn[2];
        ym[2] += a[6] * xn[0] + a[7] * xn[1] + a[8] * xn[2];
      }
    }
    double* yn = y + static_cast<std::size_t>(br) * 3U;
    _mm_storeu_pd(yn, _mm_add_pd(_mm_loadu_pd(yn), acc01));
    yn[2] += acc2;
  }
}

void block3_accum_sse2(const double* valuesT, const std::int32_t* row_ptr,
                       const std::int32_t* cols, int nrows, const double* xg,
                       double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    __m128d acc01 = _mm_setzero_pd();
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const double* xb = xg + static_cast<std::size_t>(cols[p]) * 3U;
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + 0), _mm_set1_pd(xb[0])));
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + 3), _mm_set1_pd(xb[1])));
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_loadu_pd(a + 6), _mm_set1_pd(xb[2])));
      acc2 += a[2] * xb[0] + a[5] * xb[1] + a[8] * xb[2];
    }
    double* yn = y + static_cast<std::size_t>(br) * 3U;
    _mm_storeu_pd(yn, _mm_add_pd(_mm_loadu_pd(yn), acc01));
    yn[2] += acc2;
  }
}

// ---------------------------------------------------------------------------
// AVX2+FMA: 4-lane columns (the 4th lane overhangs into the next block and is
// multiplied by a broadcast that only feeds lanes 0..2 of the result, or is
// zeroed before the horizontal sums). Compiled with a per-function target
// attribute so the rest of the library keeps the portable baseline ISA.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) void block3_sym_avx2(
    const double* valuesT, const std::int32_t* row_ptr, const std::int32_t* cols,
    int nrows, const double* xg, double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    if (pb == pe) continue;
    const double* xn = xg + static_cast<std::size_t>(br) * 3U;
    // x_n with the overhanging 4th lane zeroed, for the transpose dots.
    const __m256d xn4 =
        _mm256_blend_pd(_mm256_loadu_pd(xn), _mm256_setzero_pd(), 0x8);
    __m256d acc_a = _mm256_setzero_pd();
    __m256d acc_b = _mm256_setzero_pd();
    __m256d acc_c = _mm256_setzero_pd();
    {
      // Diagonal block (stored first: cols[pb] == br).
      const double* a = valuesT + static_cast<std::size_t>(pb) * 9U;
      acc_a = _mm256_fmadd_pd(_mm256_loadu_pd(a + 0), _mm256_broadcast_sd(xn + 0), acc_a);
      acc_b = _mm256_fmadd_pd(_mm256_loadu_pd(a + 3), _mm256_broadcast_sd(xn + 1), acc_b);
      acc_c = _mm256_fmadd_pd(_mm256_loadu_pd(a + 6), _mm256_broadcast_sd(xn + 2), acc_c);
    }
    for (std::int32_t p = pb + 1; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const std::int32_t m = cols[p];
      const double* xm = xg + static_cast<std::size_t>(m) * 3U;
      const __m256d c0 = _mm256_loadu_pd(a + 0);
      const __m256d c1 = _mm256_loadu_pd(a + 3);
      const __m256d c2 = _mm256_loadu_pd(a + 6);
      // y_n += A x_m (column form).
      acc_a = _mm256_fmadd_pd(c0, _mm256_broadcast_sd(xm + 0), acc_a);
      acc_b = _mm256_fmadd_pd(c1, _mm256_broadcast_sd(xm + 1), acc_b);
      acc_c = _mm256_fmadd_pd(c2, _mm256_broadcast_sd(xm + 2), acc_c);
      // y_m += A^T x_n: dot each stored column with x_n (lane 3 is zero).
      const __m256d d0 = _mm256_mul_pd(c0, xn4);
      const __m256d d1 = _mm256_mul_pd(c1, xn4);
      const __m256d d2 = _mm256_mul_pd(c2, xn4);
      const __m256d t01 = _mm256_hadd_pd(d0, d1);
      const __m128d s01 =
          _mm_add_pd(_mm256_castpd256_pd128(t01), _mm256_extractf128_pd(t01, 1));
      const __m128d s2p =
          _mm_add_pd(_mm256_castpd256_pd128(d2), _mm256_extractf128_pd(d2, 1));
      const double s2 = _mm_cvtsd_f64(_mm_add_sd(s2p, _mm_unpackhi_pd(s2p, s2p)));
      double* ym = y + static_cast<std::size_t>(m) * 3U;
      _mm_storeu_pd(ym, _mm_add_pd(_mm_loadu_pd(ym), s01));
      ym[2] += s2;
    }
    const __m256d acc = _mm256_add_pd(_mm256_add_pd(acc_a, acc_b), acc_c);
    double out[4];
    _mm256_storeu_pd(out, acc);
    double* yn = y + static_cast<std::size_t>(br) * 3U;
    yn[0] += out[0];
    yn[1] += out[1];
    yn[2] += out[2];
  }
}

__attribute__((target("avx2,fma"))) void block3_accum_avx2(
    const double* valuesT, const std::int32_t* row_ptr, const std::int32_t* cols,
    int nrows, const double* xg, double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    __m256d acc_a = _mm256_setzero_pd();
    __m256d acc_b = _mm256_setzero_pd();
    __m256d acc_c = _mm256_setzero_pd();
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const double* xb = xg + static_cast<std::size_t>(cols[p]) * 3U;
      acc_a = _mm256_fmadd_pd(_mm256_loadu_pd(a + 0), _mm256_broadcast_sd(xb + 0), acc_a);
      acc_b = _mm256_fmadd_pd(_mm256_loadu_pd(a + 3), _mm256_broadcast_sd(xb + 1), acc_b);
      acc_c = _mm256_fmadd_pd(_mm256_loadu_pd(a + 6), _mm256_broadcast_sd(xb + 2), acc_c);
    }
    const __m256d acc = _mm256_add_pd(_mm256_add_pd(acc_a, acc_b), acc_c);
    double out[4];
    _mm256_storeu_pd(out, acc);
    double* yn = y + static_cast<std::size_t>(br) * 3U;
    yn[0] += out[0];
    yn[1] += out[1];
    yn[2] += out[2];
  }
}

#endif  // NEURO_SIMD_X86

// ---------------------------------------------------------------------------
// NEON (AArch64): 2-lane columns, scalar third row — the SSE2 shape on
// AdvSIMD fused multiply-adds.
// ---------------------------------------------------------------------------
#if defined(NEURO_SIMD_NEON)

void block3_sym_neon(const double* valuesT, const std::int32_t* row_ptr,
                     const std::int32_t* cols, int nrows, const double* xg,
                     double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    const double* xn = xg + static_cast<std::size_t>(br) * 3U;
    float64x2_t acc01 = vdupq_n_f64(0.0);
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const std::int32_t m = cols[p];
      const double* xm = xg + static_cast<std::size_t>(m) * 3U;
      acc01 = vfmaq_n_f64(acc01, vld1q_f64(a + 0), xm[0]);
      acc01 = vfmaq_n_f64(acc01, vld1q_f64(a + 3), xm[1]);
      acc01 = vfmaq_n_f64(acc01, vld1q_f64(a + 6), xm[2]);
      acc2 += a[2] * xm[0] + a[5] * xm[1] + a[8] * xm[2];
      if (m != br) {
        double* ym = y + static_cast<std::size_t>(m) * 3U;
        ym[0] += a[0] * xn[0] + a[1] * xn[1] + a[2] * xn[2];
        ym[1] += a[3] * xn[0] + a[4] * xn[1] + a[5] * xn[2];
        ym[2] += a[6] * xn[0] + a[7] * xn[1] + a[8] * xn[2];
      }
    }
    double* yn = y + static_cast<std::size_t>(br) * 3U;
    vst1q_f64(yn, vaddq_f64(vld1q_f64(yn), acc01));
    yn[2] += acc2;
  }
}

void block3_accum_neon(const double* valuesT, const std::int32_t* row_ptr,
                       const std::int32_t* cols, int nrows, const double* xg,
                       double* y) {
  for (int br = 0; br < nrows; ++br) {
    const std::int32_t pb = row_ptr[br];
    const std::int32_t pe = row_ptr[br + 1];
    float64x2_t acc01 = vdupq_n_f64(0.0);
    double acc2 = 0.0;
    for (std::int32_t p = pb; p < pe; ++p) {
      const double* a = valuesT + static_cast<std::size_t>(p) * 9U;
      const double* xb = xg + static_cast<std::size_t>(cols[p]) * 3U;
      acc01 = vfmaq_n_f64(acc01, vld1q_f64(a + 0), xb[0]);
      acc01 = vfmaq_n_f64(acc01, vld1q_f64(a + 3), xb[1]);
      acc01 = vfmaq_n_f64(acc01, vld1q_f64(a + 6), xb[2]);
      acc2 += a[2] * xb[0] + a[5] * xb[1] + a[8] * xb[2];
    }
    double* yn = y + static_cast<std::size_t>(br) * 3U;
    vst1q_f64(yn, vaddq_f64(vld1q_f64(yn), acc01));
    yn[2] += acc2;
  }
}

#endif  // NEURO_SIMD_NEON

}  // namespace

void block3_sym_apply(DispatchTarget target, const double* valuesT,
                      const std::int32_t* row_ptr, const std::int32_t* cols,
                      int nrows, const double* xg, double* y) {
  switch (target) {
    case DispatchTarget::kAuto:
      block3_sym_apply(detect_dispatch_target(), valuesT, row_ptr, cols, nrows, xg, y);
      return;
    case DispatchTarget::kScalar:
      block3_sym_scalar(valuesT, row_ptr, cols, nrows, xg, y);
      return;
    case DispatchTarget::kSse2:
#if defined(NEURO_SIMD_X86)
      block3_sym_sse2(valuesT, row_ptr, cols, nrows, xg, y);
      return;
#else
      break;
#endif
    case DispatchTarget::kAvx2:
#if defined(NEURO_SIMD_X86)
      block3_sym_avx2(valuesT, row_ptr, cols, nrows, xg, y);
      return;
#else
      break;
#endif
    case DispatchTarget::kNeon:
#if defined(NEURO_SIMD_NEON)
      block3_sym_neon(valuesT, row_ptr, cols, nrows, xg, y);
      return;
#else
      break;
#endif
  }
  NEURO_REQUIRE(false, "block3_sym_apply: target '"
                           << dispatch_target_name(target)
                           << "' not compiled into this build");
}

void block3_accum_apply(DispatchTarget target, const double* valuesT,
                        const std::int32_t* row_ptr, const std::int32_t* cols,
                        int nrows, const double* xg, double* y) {
  switch (target) {
    case DispatchTarget::kAuto:
      block3_accum_apply(detect_dispatch_target(), valuesT, row_ptr, cols, nrows, xg, y);
      return;
    case DispatchTarget::kScalar:
      block3_accum_scalar(valuesT, row_ptr, cols, nrows, xg, y);
      return;
    case DispatchTarget::kSse2:
#if defined(NEURO_SIMD_X86)
      block3_accum_sse2(valuesT, row_ptr, cols, nrows, xg, y);
      return;
#else
      break;
#endif
    case DispatchTarget::kAvx2:
#if defined(NEURO_SIMD_X86)
      block3_accum_avx2(valuesT, row_ptr, cols, nrows, xg, y);
      return;
#else
      break;
#endif
    case DispatchTarget::kNeon:
#if defined(NEURO_SIMD_NEON)
      block3_accum_neon(valuesT, row_ptr, cols, nrows, xg, y);
      return;
#else
      break;
#endif
  }
  NEURO_REQUIRE(false, "block3_accum_apply: target '"
                           << dispatch_target_name(target)
                           << "' not compiled into this build");
}

}  // namespace neuro::solver::simd
