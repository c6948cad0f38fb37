// Runtime-dispatched SIMD compute kernels for the per-window math path.
//
// Every numeric inner loop the pipeline runs per window -- the eq. (2)/(5)
// centroid distance scans, the scaled HMM forward/backward recursions, the
// log-space Viterbi max-plus rows, and the online EMA gain updates -- funnels
// through the function table returned by k(). The implementation level
// (AVX2+FMA or portable scalar) is selected exactly once at startup from
// cpuid, overridable with SENTINEL_KERNELS=scalar|avx2. The AVX2 table keeps
// an intrinsics body only where bench/perf_kernels measures it beating the
// scalar one at some shape; its other entries (max_plus, div_scale) point at
// the scalar functions.
//
// Reduction semantics are fixed, not implementation-defined: every reduction
// (dist2, dot, sum, mat_vec, normalize, max_plus) uses the same 4-lane
// striped pairwise tree --
//
//   lane l accumulates elements l, l+4, l+8, ... (ascending, from +0.0);
//   result = (lane0 + lane1) + (lane2 + lane3)
//
// -- and the scalar fallback implements the *same* tree with four scalar
// accumulators, so both levels are bit-identical to one another on every
// input (infinities, signed zeros, denormals included; NaN payload bits are
// the one exception -- x86 NaN propagation is operand-order dependent and the
// compiler may commute scalar multiplies, so only *which* results are NaN is
// guaranteed, not their payloads). To keep that guarantee, no
// kernel uses FMA in value-bearing arithmetic (a fused multiply-add rounds
// once where mul+add rounds twice), and the kernel translation units are
// compiled with -ffp-contract=off so the compiler cannot fuse behind our
// back. The AVX2 level still requires the FMA cpuid bit -- it identifies the
// Haswell+ generation the 256-bit paths are tuned for -- it just does not
// contract our arithmetic.
//
// max_plus reproduces sequential first-max semantics exactly: each lane keeps
// the first element that strictly exceeds its running max, and the cross-lane
// combine prefers strictly-greater values, breaking exact ties toward the
// smaller index. The winner of that tournament is provably the first global
// maximum of the sequential scan, so Viterbi backpointers are unchanged.

#pragma once

#include <cstddef>
#include <cstdint>

namespace sentinel::kern {

/// The values are exported as the benches' `machine.kernel_level` counter;
/// keep them stable.
enum class Level { scalar = 0, avx2 = 2 };

struct MaxPlusResult {
  double value;
  std::size_t index;
};

/// The kernel function table. All pointers are non-null at every level.
struct Kernels {
  const char* name;

  /// out[s] = striped squared distance between p and block + s*stride, both
  /// read over the full `stride` width. Callers keep pad cells at +0.0 in
  /// both operands, which leaves the reduction bit-identical to one over the
  /// unpadded dimension (squares are never -0.0).
  void (*dist2_block)(const double* block, std::size_t count, std::size_t stride,
                      const double* p, double* out);
  /// Striped squared distance ||a - b||^2 over n elements.
  double (*dist2)(const double* a, const double* b, std::size_t n);
  /// Striped inner product <a, b>.
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// Striped sum of a[0..n).
  double (*sum)(const double* a, std::size_t n);
  /// Fused windowed-moment reduction (the screen tier's chi-squared
  /// numerators): *sum_out = striped sum of a, *sumsq_out = striped sum of
  /// a^2, one pass over the input. Each moment uses its own 4-lane tree, so
  /// *sum_out is bit-identical to sum() at every level.
  void (*sum_sumsq)(const double* a, std::size_t n, double* sum_out, double* sumsq_out);

  /// out[j] += x[i] * m[i*stride + j], i ascending 0..rows. Per output lane
  /// this is the plain sequential accumulation order (no striping), so it is
  /// bit-identical to the classic nested loop at every level.
  void (*vec_mat)(const double* x, const double* m, std::size_t rows, std::size_t cols,
                  std::size_t stride, double* out);
  /// out[i] = striped dot of row i of m (stride apart) with x, over cols.
  void (*mat_vec)(const double* m, const double* x, std::size_t rows, std::size_t cols,
                  std::size_t stride, double* out);
  /// Multi-RHS mat_vec over one matrix: for each k in [0, count),
  /// out[k*rows + r] = striped dot of row r of m with xs + k*xstride.
  /// Bit-identical to `count` independent mat_vec calls at every level.
  void (*mat_vec_block)(const double* m, const double* xs, std::size_t count,
                        std::size_t xstride, std::size_t rows, std::size_t cols,
                        std::size_t stride, double* out);

  /// v[i] *= s.
  void (*scale)(double* v, std::size_t n, double s);
  /// v[i] /= d. Kept as an IEEE division per element (not a reciprocal
  /// multiply) so it matches pre-kernel scalar code bit-for-bit.
  void (*div_scale)(double* v, std::size_t n, double d);
  /// Batched online-EMA row update over scattered rows: for each r in
  /// [0, count), with v = base + offs[r]: v[i] *= s over [0, n), then
  /// v[cols[r]] += bump. Rows are processed in batch order with the scale
  /// strictly before the bump per row, so a batch is bit-identical to the
  /// same sequence of per-row scale() calls and scalar bumps. Callers may
  /// pass n as the padded stride: slack cells hold +0.0 and 0.0*s == +0.0.
  void (*ema_scale_bump_rows)(double* base, const std::size_t* offs,
                              const std::uint32_t* cols, std::size_t count,
                              std::size_t n, double s, double bump);
  /// y[i] += a * x[i]; multiply then add, each rounded (no FMA).
  void (*axpy)(double* y, const double* x, std::size_t n, double a);
  /// out[i] = a[i] * b[i]. out may alias a or b.
  void (*mul)(double* out, const double* a, const double* b, std::size_t n);
  /// y[i] += s * (a[i] * b[i]); each multiply and the add rounded separately
  /// (no FMA). Elementwise, so trivially bit-identical across levels.
  void (*mul_axpy)(double* y, const double* a, const double* b, std::size_t n, double s);

  /// Fused scale-and-normalize for the scaled forward/backward passes:
  /// c = striped sum of v; if c <= 0 it is clamped to DBL_MIN (the classic
  /// scaled-recursion guard); v is scaled by 1/c in place and 1/c returned.
  double (*normalize)(double* v, std::size_t n);

  /// max over i of x[i] + y[i] with sequential first-max index semantics.
  /// n == 0 yields {-inf, 0}. NaN entries are never selected.
  MaxPlusResult (*max_plus)(const double* x, const double* y, std::size_t n);
};

/// Table for a given level. Always safe to call for level_supported() levels;
/// an unsupported level silently degrades to the best supported one (so
/// non-x86 builds still link and behave identically).
const Kernels& table(Level level);

/// True if this CPU can execute kernels at `level` (scalar is always true).
bool level_supported(Level level);

/// The level resolved once at startup: SENTINEL_KERNELS override if set and
/// supported, else the best the CPU advertises.
Level active_level();

/// The active kernel table (resolved once; subsequent calls are a load).
const Kernels& k();

const char* level_name(Level level);

/// Parse "scalar" / "avx2". Returns false on anything else.
bool parse_level(const char* text, Level& out);

/// Round a row length up to the 4-lane kernel width. Centroid and matrix row
/// storage is padded to this stride so SIMD rows never straddle a tail.
constexpr std::size_t padded(std::size_t n) { return (n + 3) & ~static_cast<std::size_t>(3); }

}  // namespace sentinel::kern
