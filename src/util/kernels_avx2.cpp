// AVX2 kernel level. One 256-bit register holds the four reduction lanes of
// kernels.h directly; tails fall back to the scalar lane updates, so results
// are bit-identical to the scalar reference. No FMA in value-bearing
// arithmetic (see kernels.h). Compiled with -mavx2 -mfma -ffp-contract=off;
// dispatch guarantees these bodies only run when cpuid reports AVX2+FMA.

#include "util/kernels.h"

#include <cfloat>
#include <immintrin.h>

namespace sentinel::kern {

// Scalar entries this table shares (kernels.cpp): at no shape perf_kernels
// measures did their AVX2 bodies beat them beyond run-to-run noise.
void div_scale_scalar(double* v, std::size_t n, double d);
MaxPlusResult max_plus_scalar(const double* x, const double* y, std::size_t n);

namespace {

inline double reduce_tree(__m256d acc) {
  // (lane0 + lane1) + (lane2 + lane3)
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d s01 = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
  const __m128d s23 = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
  return _mm_cvtsd_f64(_mm_add_sd(s01, s23));
}

inline double finish_reduction(double lane[4]) {
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double dist2_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  if (i == n) return reduce_tree(acc);
  alignas(32) double lane[4];
  _mm256_storeu_pd(lane, acc);
  for (int l = 0; i < n; ++i, ++l) {
    const double d = a[i] - b[i];
    lane[l] += d * d;
  }
  return finish_reduction(lane);
}

void dist2_block_avx2(const double* block, std::size_t count, std::size_t stride,
                      const double* p, double* out) {
  if (stride == 4) {
    // The dominant shape: 2- or 3-attribute centroids padded to one vector.
    const __m256d q = _mm256_loadu_pd(p);
    std::size_t s = 0;
    for (; s + 2 <= count; s += 2) {
      const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(block + s * 4), q);
      const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(block + s * 4 + 4), q);
      out[s] = reduce_tree(_mm256_mul_pd(d0, d0));
      out[s + 1] = reduce_tree(_mm256_mul_pd(d1, d1));
    }
    for (; s < count; ++s) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(block + s * 4), q);
      out[s] = reduce_tree(_mm256_mul_pd(d, d));
    }
    return;
  }
  if (stride == 8) {
    // 5..8-attribute rows (the perf_screen fleet shape). Unrolls the two
    // vector iterations of dist2_avx2; per lane the accumulation is
    // (0 + d0^2) + d1^2 there and d0^2 + d1^2 here -- squares are never
    // -0.0, so adding from +0.0 is exact and the results are bit-identical.
    const __m256d q0 = _mm256_loadu_pd(p);
    const __m256d q1 = _mm256_loadu_pd(p + 4);
    for (std::size_t s = 0; s < count; ++s) {
      const double* row = block + s * 8;
      const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(row), q0);
      const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(row + 4), q1);
      out[s] = reduce_tree(_mm256_add_pd(_mm256_mul_pd(d0, d0), _mm256_mul_pd(d1, d1)));
    }
    return;
  }
  for (std::size_t s = 0; s < count; ++s) {
    out[s] = dist2_avx2(block + s * stride, p, stride);
  }
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  if (i == n) return reduce_tree(acc);
  alignas(32) double lane[4];
  _mm256_storeu_pd(lane, acc);
  for (int l = 0; i < n; ++i, ++l) lane[l] += a[i] * b[i];
  return finish_reduction(lane);
}

double sum_avx2(const double* a, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));
  if (i == n) return reduce_tree(acc);
  alignas(32) double lane[4];
  _mm256_storeu_pd(lane, acc);
  for (int l = 0; i < n; ++i, ++l) lane[l] += a[i];
  return finish_reduction(lane);
}

void sum_sumsq_avx2(const double* a, std::size_t n, double* sum_out, double* sumsq_out) {
  __m256d s = _mm256_setzero_pd();
  __m256d q = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    s = _mm256_add_pd(s, v);
    q = _mm256_add_pd(q, _mm256_mul_pd(v, v));
  }
  if (i == n) {
    *sum_out = reduce_tree(s);
    *sumsq_out = reduce_tree(q);
    return;
  }
  alignas(32) double ls[4];
  alignas(32) double lq[4];
  _mm256_storeu_pd(ls, s);
  _mm256_storeu_pd(lq, q);
  for (int l = 0; i < n; ++i, ++l) {
    ls[l] += a[i];
    lq[l] += a[i] * a[i];
  }
  *sum_out = finish_reduction(ls);
  *sumsq_out = finish_reduction(lq);
}

void vec_mat_avx2(const double* x, const double* m, std::size_t rows, std::size_t cols,
                  std::size_t stride, double* out) {
  // Column-tiled: each 4-wide output tile stays in a register across the
  // whole row sweep, so out is touched once per tile instead of once per
  // row. Per output element the additions still happen in ascending-r order
  // from the initial out[j], so results are bit-identical to the classic
  // r-outer nested loop.
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    __m256d acc = _mm256_loadu_pd(out + j);
    const double* mj = m + j;
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256d xr = _mm256_set1_pd(x[r]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(xr, _mm256_loadu_pd(mj + r * stride)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < cols; ++j) {
    double acc = out[j];
    for (std::size_t r = 0; r < rows; ++r) acc += x[r] * m[r * stride + j];
    out[j] = acc;
  }
}

void mat_vec_avx2(const double* m, const double* x, std::size_t rows, std::size_t cols,
                  std::size_t stride, double* out) {
  for (std::size_t r = 0; r < rows; ++r) out[r] = dot_avx2(m + r * stride, x, cols);
}

void mat_vec_block_avx2(const double* m, const double* xs, std::size_t count,
                        std::size_t xstride, std::size_t rows, std::size_t cols,
                        std::size_t stride, double* out) {
  for (std::size_t k = 0; k < count; ++k) {
    mat_vec_avx2(m, xs + k * xstride, rows, cols, stride, out + k * rows);
  }
}

void scale_avx2(double* v, std::size_t n, double s) {
  const __m256d k = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), k));
  for (; i < n; ++i) v[i] *= s;
}

void ema_scale_bump_rows_avx2(double* base, const std::size_t* offs, const std::uint32_t* cols,
                              std::size_t count, std::size_t n, double s, double bump) {
  const __m256d k = _mm256_set1_pd(s);
  for (std::size_t r = 0; r < count; ++r) {
    double* v = base + offs[r];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), k));
    for (; i < n; ++i) v[i] *= s;
    v[cols[r]] += bump;
  }
}

void accum_rows_avx2(double* base, const std::size_t* offs, const double* const* srcs,
                     std::size_t count, std::size_t n) {
  for (std::size_t r = 0; r < count; ++r) {
    double* v = base + offs[r];
    const double* s = srcs[r];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(v + i, _mm256_add_pd(_mm256_loadu_pd(v + i), _mm256_loadu_pd(s + i)));
    }
    for (; i < n; ++i) v[i] += s[i];
  }
}

void sum_rows_avx2(double* out, const double* const* srcs, std::size_t count, std::size_t n) {
  for (std::size_t r = 0; r < count; ++r) {
    const double* s = srcs[r];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), _mm256_loadu_pd(s + i)));
    }
    for (; i < n; ++i) out[i] += s[i];
  }
}

void axpy_avx2(double* y, const double* x, std::size_t n, double a) {
  const __m256d k = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(yy, _mm256_mul_pd(k, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void mul_axpy_avx2(double* y, const double* a, const double* b, std::size_t n, double s) {
  const __m256d k = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d yy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(yy, _mm256_mul_pd(k, p)));
  }
  for (; i < n; ++i) y[i] += s * (a[i] * b[i]);
}

void mul_avx2(double* out, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

double normalize_avx2(double* v, std::size_t n) {
  double c = sum_avx2(v, n);
  if (c <= 0.0) c = DBL_MIN;
  const double inv = 1.0 / c;
  scale_avx2(v, n, inv);
  return inv;
}

constexpr Kernels kAvx2Kernels{
    "avx2",        dist2_block_avx2, dist2_avx2, dot_avx2,       sum_avx2,
    sum_sumsq_avx2,
    vec_mat_avx2,  mat_vec_avx2,     mat_vec_block_avx2,
    scale_avx2,    div_scale_scalar,
    ema_scale_bump_rows_avx2,
    accum_rows_avx2, sum_rows_avx2,
    axpy_avx2,     mul_avx2,         mul_axpy_avx2,
    normalize_avx2, max_plus_scalar,
};

}  // namespace

const Kernels& avx2_kernels() { return kAvx2Kernels; }

}  // namespace sentinel::kern
