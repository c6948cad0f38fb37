// Property tests for the runtime-dispatched SIMD kernels (util/kernels.h).
//
// The dispatch contract is *bit-identity*: both levels (scalar, AVX2)
// implement the same 4-lane striped pairwise reduction tree, so on any
// input -- NaN, infinities, signed zeros, denormals, hostile lengths,
// unaligned pointers -- every supported level must produce byte-for-byte the
// same results. These tests compare every supported level against the scalar
// reference through std::bit_cast. The one exemption is NaN *payload* bits:
// x86 NaN propagation is operand-order dependent and ISO C++ lets the
// compiler commute scalar multiplies/adds, so when both sides are NaN any
// payload is accepted (which elements are NaN must still agree exactly).

#include "util/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace sentinel::kern {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;  // payload bits exempt (see header)
  EXPECT_EQ(bits(a), bits(b)) << what << ": " << a << " vs " << b;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_bits(a[i], b[i], what + " at " + std::to_string(i));
  }
}

/// Levels to test against the scalar reference (scalar included as a sanity
/// self-check; unsupported levels are skipped).
std::vector<Level> testable_levels() {
  std::vector<Level> out;
  for (const Level l : {Level::scalar, Level::avx2}) {
    if (level_supported(l)) out.push_back(l);
  }
  return out;
}

/// Hostile lengths: empty, sub-lane, exactly one lane pass, lane pass + every
/// tail size, and larger mixed cases.
const std::vector<std::size_t> kLengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16, 31, 33, 64};

/// Deterministic hostile input: special values sprinkled into log-uniform
/// magnitudes, with sign flips. `salt` decorrelates the a/b operands.
std::vector<double> hostile(std::size_t n, std::uint64_t salt) {
  std::mt19937_64 rng(0x5eed + salt);
  std::uniform_real_distribution<double> mag(-300.0, 300.0);
  std::uniform_int_distribution<int> pick(0, 19);
  std::vector<double> v(n);
  for (auto& x : v) {
    switch (pick(rng)) {
      case 0: x = kNaN; break;
      case 1: x = kInf; break;
      case 2: x = -kInf; break;
      case 3: x = 0.0; break;
      case 4: x = -0.0; break;
      case 5: x = kDenorm; break;
      case 6: x = -kDenorm * 7.0; break;
      case 7: x = std::numeric_limits<double>::max(); break;
      default:
        x = (pick(rng) % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, mag(rng));
    }
  }
  return v;
}

/// Copies `v` into a fresh buffer at an odd offset so vector loads are
/// genuinely unaligned.
struct Unaligned {
  explicit Unaligned(const std::vector<double>& v) : store(v.size() + 1, 0.0) {
    std::copy(v.begin(), v.end(), store.begin() + 1);
  }
  const double* data() const { return store.data() + 1; }
  double* data() { return store.data() + 1; }

  std::vector<double> store;
};

TEST(KernelsTest, ReductionsBitIdenticalAcrossLevels) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t n : kLengths) {
      const auto av = hostile(n, 1);
      const auto bv = hostile(n, 2);
      const Unaligned a(av);
      const Unaligned b(bv);
      const std::string tag = std::string(level_name(level)) + " n=" + std::to_string(n);
      expect_same_bits(k.dist2(a.data(), b.data(), n), ref.dist2(a.data(), b.data(), n),
                       "dist2 " + tag);
      expect_same_bits(k.dot(a.data(), b.data(), n), ref.dot(a.data(), b.data(), n),
                       "dot " + tag);
      expect_same_bits(k.sum(a.data(), n), ref.sum(a.data(), n), "sum " + tag);
      double s_got = 0.0;
      double q_got = 0.0;
      double s_want = 0.0;
      double q_want = 0.0;
      k.sum_sumsq(a.data(), n, &s_got, &q_got);
      ref.sum_sumsq(a.data(), n, &s_want, &q_want);
      expect_same_bits(s_got, s_want, "sum_sumsq.sum " + tag);
      expect_same_bits(q_got, q_want, "sum_sumsq.sumsq " + tag);
      // The fused kernel is two striped reductions in one pass: the sum must
      // equal sum() and the sum of squares dot(a, a) (same tree, same
      // products) bit-for-bit at every level.
      expect_same_bits(s_got, k.sum(a.data(), n), "sum_sumsq vs sum " + tag);
      expect_same_bits(q_got, k.dot(a.data(), a.data(), n), "sum_sumsq vs dot " + tag);
    }
  }
}

TEST(KernelsTest, Dist2BlockMatchesPerRowDist2) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t stride : {4ul, 5ul, 8ul, 3ul}) {
      for (const std::size_t count : {0ul, 1ul, 2ul, 3ul, 7ul, 32ul}) {
        const auto block = hostile(count * stride, 3 + stride);
        const auto query = hostile(stride, 4);
        const Unaligned blk(block);
        const Unaligned q(query);
        std::vector<double> got(count, 0.0);
        std::vector<double> want(count, 0.0);
        k.dist2_block(blk.data(), count, stride, q.data(), got.data());
        for (std::size_t s = 0; s < count; ++s) {
          want[s] = ref.dist2(blk.data() + s * stride, q.data(), stride);
        }
        expect_same_bits(got, want,
                         std::string("dist2_block ") + level_name(level) + " stride=" +
                             std::to_string(stride) + " count=" + std::to_string(count));
      }
    }
  }
}

TEST(KernelsTest, MatrixProductsBitIdenticalAcrossLevels) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t rows : {1ul, 2ul, 4ul, 5ul, 9ul, 16ul}) {
      for (const std::size_t cols : {1ul, 3ul, 4ul, 7ul, 12ul}) {
        const std::size_t stride = padded(cols);
        const auto m = hostile(rows * stride, 10 + rows);
        const auto x = hostile(rows, 11);
        const auto xc = hostile(cols, 12);
        const auto init = hostile(cols, 13);
        const std::string tag = std::string(level_name(level)) + " " + std::to_string(rows) +
                                "x" + std::to_string(cols);

        std::vector<double> got(init);
        std::vector<double> want(init);
        k.vec_mat(x.data(), m.data(), rows, cols, stride, got.data());
        ref.vec_mat(x.data(), m.data(), rows, cols, stride, want.data());
        expect_same_bits(got, want, "vec_mat " + tag);

        got.assign(rows, 0.0);
        want.assign(rows, 0.0);
        k.mat_vec(m.data(), xc.data(), rows, cols, stride, got.data());
        ref.mat_vec(m.data(), xc.data(), rows, cols, stride, want.data());
        expect_same_bits(got, want, "mat_vec " + tag);
      }
    }
  }
}

TEST(KernelsTest, MatVecBlockMatchesRepeatedMatVec) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t rows : {1ul, 2ul, 5ul, 9ul}) {
      for (const std::size_t cols : {1ul, 3ul, 4ul, 7ul}) {
        for (const std::size_t count : {0ul, 1ul, 2ul, 3ul, 8ul}) {
          const std::size_t stride = padded(cols);
          const std::size_t xstride = stride + 4;  // xs packed wider than the matrix
          const auto m = hostile(rows * stride, 40 + rows);
          const auto xs = hostile(count * xstride, 41 + cols);
          const std::string tag = std::string(level_name(level)) + " " + std::to_string(rows) +
                                  "x" + std::to_string(cols) + " count=" + std::to_string(count);

          std::vector<double> got(count * rows, 0.0);
          k.mat_vec_block(m.data(), xs.data(), count, xstride, rows, cols, stride, got.data());

          // Contract: bit-identical to `count` independent mat_vec calls.
          std::vector<double> want(count * rows, 0.0);
          for (std::size_t c = 0; c < count; ++c) {
            ref.mat_vec(m.data(), xs.data() + c * xstride, rows, cols, stride,
                        want.data() + c * rows);
          }
          expect_same_bits(got, want, "mat_vec_block " + tag);
        }
      }
    }
  }
}

TEST(KernelsTest, EmaScaleBumpRowsMatchesPerRowScaleThenBump) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t n : {4ul, 8ul, 12ul}) {
      for (const std::size_t count : {0ul, 1ul, 2ul, 5ul, 17ul}) {
        // Scattered rows inside one arena, including repeated offsets: the
        // same row updated twice in one batch must see both updates in batch
        // order, exactly like sequential per-row calls.
        const std::size_t arena_rows = 8;
        auto arena = hostile(arena_rows * n, 50 + n);
        std::vector<std::size_t> offs(count);
        std::vector<std::uint32_t> cols(count);
        std::mt19937_64 rng(77 + count);
        for (std::size_t r = 0; r < count; ++r) {
          offs[r] = (rng() % arena_rows) * n;
          cols[r] = static_cast<std::uint32_t>(rng() % n);
        }
        const double s = 0.97;
        const double bump = 0.03;
        const std::string tag = std::string(level_name(level)) + " n=" + std::to_string(n) +
                                " count=" + std::to_string(count);

        auto got = arena;
        k.ema_scale_bump_rows(got.data(), offs.data(), cols.data(), count, n, s, bump);

        auto want = arena;
        for (std::size_t r = 0; r < count; ++r) {
          ref.scale(want.data() + offs[r], n, s);
          want[offs[r] + cols[r]] += bump;
        }
        expect_same_bits(got, want, "ema_scale_bump_rows " + tag);
      }
    }
  }
}

TEST(KernelsTest, ElementwiseOpsBitIdenticalAcrossLevels) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t n : kLengths) {
      const auto av = hostile(n, 20);
      const auto bv = hostile(n, 21);
      const auto yv = hostile(n, 22);
      const double s = -3.25e-7;
      const std::string tag = std::string(level_name(level)) + " n=" + std::to_string(n);

      std::vector<double> got(yv);
      std::vector<double> want(yv);
      k.scale(got.data(), n, s);
      ref.scale(want.data(), n, s);
      expect_same_bits(got, want, "scale " + tag);

      got = yv;
      want = yv;
      k.div_scale(got.data(), n, 0.0);  // inf/NaN results must match too
      ref.div_scale(want.data(), n, 0.0);
      expect_same_bits(got, want, "div_scale " + tag);

      got = yv;
      want = yv;
      k.axpy(got.data(), av.data(), n, s);
      ref.axpy(want.data(), av.data(), n, s);
      expect_same_bits(got, want, "axpy " + tag);

      got.assign(n, 0.0);
      want.assign(n, 0.0);
      k.mul(got.data(), av.data(), bv.data(), n);
      ref.mul(want.data(), av.data(), bv.data(), n);
      expect_same_bits(got, want, "mul " + tag);

      got = yv;
      want = yv;
      k.mul_axpy(got.data(), av.data(), bv.data(), n, s);
      ref.mul_axpy(want.data(), av.data(), bv.data(), n, s);
      expect_same_bits(got, want, "mul_axpy " + tag);

      got = yv;
      want = yv;
      const double gi = k.normalize(got.data(), n);
      const double wi = ref.normalize(want.data(), n);
      expect_same_bits(gi, wi, "normalize inv " + tag);
      expect_same_bits(got, want, "normalize " + tag);
    }
  }
}

TEST(KernelsTest, MaxPlusMatchesSequentialFirstMax) {
  const Kernels& ref = table(Level::scalar);
  for (const Level level : testable_levels()) {
    const Kernels& k = table(level);
    for (const std::size_t n : kLengths) {
      // Ties are the hard case: quantize so equal sums are common.
      auto xv = hostile(n, 30);
      auto yv = hostile(n, 31);
      for (auto& x : xv) {
        if (std::isfinite(x)) x = std::floor(std::fmod(x, 4.0));
      }
      for (auto& y : yv) {
        if (std::isfinite(y)) y = std::floor(std::fmod(y, 4.0));
      }
      const MaxPlusResult got = k.max_plus(xv.data(), yv.data(), n);
      const MaxPlusResult want = ref.max_plus(xv.data(), yv.data(), n);
      const std::string tag = std::string(level_name(level)) + " n=" + std::to_string(n);
      expect_same_bits(got.value, want.value, "max_plus value " + tag);
      EXPECT_EQ(got.index, want.index) << "max_plus index " << tag;

      // Reference semantics: the sequential first strict max.
      double best = -kInf;
      std::size_t best_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = xv[i] + yv[i];
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      expect_same_bits(want.value, best, "scalar max_plus vs sequential " + tag);
      EXPECT_EQ(want.index, best_i) << "scalar max_plus index vs sequential " << tag;
    }
  }
}

TEST(KernelsDispatchTest, ParseLevel) {
  Level l = Level::avx2;
  EXPECT_TRUE(parse_level("scalar", l));
  EXPECT_EQ(l, Level::scalar);
  EXPECT_TRUE(parse_level("avx2", l));
  EXPECT_EQ(l, Level::avx2);
  EXPECT_FALSE(parse_level("sse2", l));
  EXPECT_FALSE(parse_level("", l));
  EXPECT_FALSE(parse_level("AVX2", l));
  EXPECT_FALSE(parse_level("avx512", l));
  EXPECT_FALSE(parse_level(nullptr, l));
}

TEST(KernelsDispatchTest, LevelNamesRoundTrip) {
  for (const Level l : {Level::scalar, Level::avx2}) {
    Level parsed = Level::scalar;
    ASSERT_TRUE(parse_level(level_name(l), parsed));
    EXPECT_EQ(parsed, l);
  }
}

TEST(KernelsDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(level_supported(Level::scalar));
  EXPECT_STREQ(table(Level::scalar).name, "scalar");
}

TEST(KernelsDispatchTest, TablesReportTheirLevel) {
  for (const Level l : testable_levels()) {
    EXPECT_STREQ(table(l).name, level_name(l));
  }
}

TEST(KernelsDispatchTest, ActiveLevelIsSupportedAndMatchesTable) {
  const Level active = active_level();
  EXPECT_TRUE(level_supported(active));
  EXPECT_STREQ(k().name, level_name(active));
}

TEST(KernelsDispatchTest, ActiveLevelHonorsEnvOverride) {
  // active_level() latches at first use, so this can only be verified when
  // the environment was set before the process started -- which is exactly
  // what the CI dual run (SENTINEL_KERNELS=scalar ctest) does.
  const char* env = std::getenv("SENTINEL_KERNELS");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "SENTINEL_KERNELS not set";
  }
  Level want = Level::scalar;
  if (!parse_level(env, want) || !level_supported(want)) {
    GTEST_SKIP() << "SENTINEL_KERNELS='" << env << "' invalid or unsupported here";
  }
  EXPECT_EQ(active_level(), want);
  EXPECT_STREQ(k().name, level_name(want));
}

TEST(KernelsDispatchTest, PaddedRoundsUpToLaneWidth) {
  EXPECT_EQ(padded(0), 0u);
  EXPECT_EQ(padded(1), 4u);
  EXPECT_EQ(padded(2), 4u);
  EXPECT_EQ(padded(3), 4u);
  EXPECT_EQ(padded(4), 4u);
  EXPECT_EQ(padded(5), 8u);
  EXPECT_EQ(padded(8), 8u);
  EXPECT_EQ(padded(9), 12u);
}

}  // namespace
}  // namespace sentinel::kern
