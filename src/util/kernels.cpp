// Scalar kernel level + the once-at-startup dispatch.
//
// The scalar implementations below are the *reference semantics*: four
// accumulator lanes striped over the input, combined as a fixed pairwise
// tree (see kernels.h). The AVX2 translation unit implements the same tree
// with intrinsics; this file is compiled with -ffp-contract=off so the
// compiler cannot fuse the mul+add pairs and break cross-level bit-identity.

#include "util/kernels.h"

#include <cfloat>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace sentinel::kern {

// The AVX2 table names these two as well (kernels_avx2.cpp).

void div_scale_scalar(double* v, std::size_t n, double d) {
  for (std::size_t i = 0; i < n; ++i) v[i] /= d;
}

MaxPlusResult max_plus_scalar(const double* x, const double* y, std::size_t n) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  double bv[4] = {kNegInf, kNegInf, kNegInf, kNegInf};
  std::size_t bi[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double v = x[i + l] + y[i + l];
      if (v > bv[l]) {
        bv[l] = v;
        bi[l] = i + l;
      }
    }
  }
  for (int l = 0; i < n; ++i, ++l) {
    const double v = x[i] + y[i];
    if (v > bv[l]) {
      bv[l] = v;
      bi[l] = i;
    }
  }
  MaxPlusResult r{bv[0], bi[0]};
  for (int l = 1; l < 4; ++l) {
    if (bv[l] > r.value || (bv[l] == r.value && bi[l] < r.index)) {
      r.value = bv[l];
      r.index = bi[l];
    }
  }
  return r;
}

namespace {

inline double reduce_tree(const double lane[4]) {
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double dist2_scalar(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double d = a[i + l] - b[i + l];
      lane[l] += d * d;
    }
  }
  for (int l = 0; i < n; ++i, ++l) {
    const double d = a[i] - b[i];
    lane[l] += d * d;
  }
  return reduce_tree(lane);
}

void dist2_block_scalar(const double* block, std::size_t count, std::size_t stride,
                        const double* p, double* out) {
  for (std::size_t s = 0; s < count; ++s) {
    out[s] = dist2_scalar(block + s * stride, p, stride);
  }
}

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) lane[l] += a[i + l] * b[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) lane[l] += a[i] * b[i];
  return reduce_tree(lane);
}

double sum_scalar(const double* a, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) lane[l] += a[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) lane[l] += a[i];
  return reduce_tree(lane);
}

void sum_sumsq_scalar(const double* a, std::size_t n, double* sum_out, double* sumsq_out) {
  double ls[4] = {0.0, 0.0, 0.0, 0.0};
  double lq[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      ls[l] += a[i + l];
      lq[l] += a[i + l] * a[i + l];
    }
  }
  for (int l = 0; i < n; ++i, ++l) {
    ls[l] += a[i];
    lq[l] += a[i] * a[i];
  }
  *sum_out = reduce_tree(ls);
  *sumsq_out = reduce_tree(lq);
}

void vec_mat_scalar(const double* x, const double* m, std::size_t rows, std::size_t cols,
                    std::size_t stride, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    const double* row = m + r * stride;
    for (std::size_t j = 0; j < cols; ++j) out[j] += xr * row[j];
  }
}

void mat_vec_scalar(const double* m, const double* x, std::size_t rows, std::size_t cols,
                    std::size_t stride, double* out) {
  for (std::size_t r = 0; r < rows; ++r) out[r] = dot_scalar(m + r * stride, x, cols);
}

void mat_vec_block_scalar(const double* m, const double* xs, std::size_t count,
                          std::size_t xstride, std::size_t rows, std::size_t cols,
                          std::size_t stride, double* out) {
  for (std::size_t k = 0; k < count; ++k) {
    mat_vec_scalar(m, xs + k * xstride, rows, cols, stride, out + k * rows);
  }
}

void scale_scalar(double* v, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= s;
}

void ema_scale_bump_rows_scalar(double* base, const std::size_t* offs,
                                const std::uint32_t* cols, std::size_t count,
                                std::size_t n, double s, double bump) {
  for (std::size_t r = 0; r < count; ++r) {
    double* v = base + offs[r];
    scale_scalar(v, n, s);
    v[cols[r]] += bump;
  }
}

void accum_rows_scalar(double* base, const std::size_t* offs, const double* const* srcs,
                       std::size_t count, std::size_t n) {
  for (std::size_t r = 0; r < count; ++r) {
    double* v = base + offs[r];
    const double* s = srcs[r];
    for (std::size_t i = 0; i < n; ++i) v[i] += s[i];
  }
}

void sum_rows_scalar(double* out, const double* const* srcs, std::size_t count, std::size_t n) {
  for (std::size_t r = 0; r < count; ++r) {
    const double* s = srcs[r];
    for (std::size_t i = 0; i < n; ++i) out[i] += s[i];
  }
}

void axpy_scalar(double* y, const double* x, std::size_t n, double a) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void mul_scalar(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void mul_axpy_scalar(double* y, const double* a, const double* b, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * (a[i] * b[i]);
}

double normalize_scalar(double* v, std::size_t n) {
  double c = sum_scalar(v, n);
  if (c <= 0.0) c = DBL_MIN;
  const double inv = 1.0 / c;
  scale_scalar(v, n, inv);
  return inv;
}

constexpr Kernels kScalarKernels{
    "scalar",        dist2_block_scalar, dist2_scalar, dot_scalar,       sum_scalar,
    sum_sumsq_scalar,
    vec_mat_scalar,  mat_vec_scalar,     mat_vec_block_scalar,
    scale_scalar,    div_scale_scalar,
    ema_scale_bump_rows_scalar,
    accum_rows_scalar, sum_rows_scalar,
    axpy_scalar,     mul_scalar,         mul_axpy_scalar,
    normalize_scalar, max_plus_scalar,
};

Level detect_best() {
#if defined(SENTINEL_X86_KERNELS)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return Level::avx2;
#endif
  return Level::scalar;
}

Level resolve_active() {
  const Level best = detect_best();
  const char* env = std::getenv("SENTINEL_KERNELS");
  if (env == nullptr || env[0] == '\0') return best;
  Level want;
  if (!parse_level(env, want)) {
    std::fprintf(stderr, "sentinel: SENTINEL_KERNELS='%s' not one of scalar|avx2; using %s\n",
                 env, level_name(best));
    return best;
  }
  if (!level_supported(want)) {
    std::fprintf(stderr, "sentinel: SENTINEL_KERNELS=%s unsupported on this CPU; using %s\n",
                 env, level_name(best));
    return best;
  }
  return want;
}

}  // namespace

#if defined(SENTINEL_X86_KERNELS)
// Defined in kernels_avx2.cpp (compiled with -mavx2 -mfma -ffp-contract=off).
const Kernels& avx2_kernels();
#endif

const Kernels& table(Level level) {
#if defined(SENTINEL_X86_KERNELS)
  if (level == Level::avx2 && level_supported(Level::avx2)) return avx2_kernels();
#endif
  (void)level;
  return kScalarKernels;
}

bool level_supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(detect_best());
}

Level active_level() {
  static const Level level = resolve_active();
  return level;
}

const Kernels& k() {
  static const Kernels& active = table(active_level());
  return active;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::scalar: return "scalar";
    case Level::avx2: return "avx2";
  }
  return "scalar";
}

bool parse_level(const char* text, Level& out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    out = Level::scalar;
  } else if (std::strcmp(text, "avx2") == 0) {
    out = Level::avx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace sentinel::kern
