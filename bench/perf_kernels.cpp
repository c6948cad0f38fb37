// P4 -- google-benchmark: the dispatched SIMD kernel layer in isolation.
//
// Unlike the other perf benches this one registers every benchmark once per
// *supported* kernel level (scalar always; avx2 when the CPU has it),
// bypassing the process-wide dispatch so one run compares the levels head to
// head: "BM_Dist2Block<avx2>/8/40" vs "BM_Dist2Block<scalar>/8/40". Every
// table entry has a row, so the rule for the AVX2 table -- an entry keeps an
// intrinsics body only if it beats scalar at some shape measured here --
// can be checked against one run. The shapes mirror the real call sites:
// dims 2-3 are the paper's attribute vectors (stride 4 after padding), dims
// 8 the autotune sweep's upper end; state counts 4-40 span the pipeline's
// model sizes and the HMM benches; the screen reduces W = 16..64 residuals.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics_main.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace {

using namespace sentinel;

using KernelBench = void (*)(benchmark::State&, const kern::Kernels&);

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed, "perf-kernels");
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

void set_items(benchmark::State& state, std::size_t per_iteration) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(per_iteration));
}

void BM_Dist2Block(benchmark::State& state, const kern::Kernels& k) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const std::size_t stride = kern::padded(dims);
  // Padded rows with +0.0 pad cells, exactly like ModelStateSet storage.
  std::vector<double> block(count * stride, 0.0);
  const auto fill = random_vec(count * dims, 1);
  for (std::size_t s = 0; s < count; ++s) {
    for (std::size_t d = 0; d < dims; ++d) block[s * stride + d] = fill[s * dims + d];
  }
  std::vector<double> query(stride, 0.0);
  const auto q = random_vec(dims, 2);
  for (std::size_t d = 0; d < dims; ++d) query[d] = q[d];
  std::vector<double> out(count, 0.0);
  for (auto _ : state) {
    k.dist2_block(block.data(), count, stride, query.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_items(state, count);
}

void BM_Dist2(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 12);
  const auto b = random_vec(n, 13);
  for (auto _ : state) benchmark::DoNotOptimize(k.dist2(a.data(), b.data(), n));
  set_items(state, n);
}

void BM_Dot(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 14);
  const auto b = random_vec(n, 15);
  for (auto _ : state) benchmark::DoNotOptimize(k.dot(a.data(), b.data(), n));
  set_items(state, n);
}

void BM_Sum(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 16);
  for (auto _ : state) benchmark::DoNotOptimize(k.sum(a.data(), n));
  set_items(state, n);
}

void BM_SumSumsq(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ring = random_vec(n, 17);
  double s = 0.0;
  double q = 0.0;
  for (auto _ : state) {
    k.sum_sumsq(ring.data(), n, &s, &q);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(q);
  }
  set_items(state, n);
}

void BM_VecMat(benchmark::State& state, const kern::Kernels& k) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t stride = kern::padded(m);
  const auto mat = random_vec(m * stride, 3);
  const auto x = random_vec(m, 4);
  std::vector<double> out(m, 0.0);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0);
    k.vec_mat(x.data(), mat.data(), m, m, stride, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_items(state, m * m);
}

void BM_MatVec(benchmark::State& state, const kern::Kernels& k) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t stride = kern::padded(m);
  const auto mat = random_vec(m * stride, 5);
  const auto x = random_vec(m, 6);
  std::vector<double> out(m, 0.0);
  for (auto _ : state) {
    k.mat_vec(mat.data(), x.data(), m, m, stride, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_items(state, m * m);
}

// Scaling by -1 flips signs exactly, so repeated in-place runs never drift
// into denormals.
void BM_Scale(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto v = random_vec(n, 20);
  for (auto _ : state) {
    k.scale(v.data(), n, -1.0);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  set_items(state, n);
}

void BM_DivScale(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto v = random_vec(n, 21);
  for (auto _ : state) {
    k.div_scale(v.data(), n, -1.0);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  set_items(state, n);
}

void BM_Axpy(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n, 26);
  std::vector<double> y(n, 0.0);
  for (auto _ : state) {
    k.axpy(y.data(), x.data(), n, 1.0);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_items(state, n);
}

void BM_Mul(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 27);
  const auto b = random_vec(n, 28);
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    k.mul(out.data(), a.data(), b.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_items(state, n);
}

void BM_Normalize(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto src = random_vec(n, 7);
  std::vector<double> v(src);
  for (auto _ : state) {
    v = src;  // normalize mutates; restore so magnitudes stay sane
    benchmark::DoNotOptimize(k.normalize(v.data(), n));
    benchmark::ClobberMemory();
  }
  set_items(state, n);
}

void BM_MulAxpy(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 8);
  const auto b = random_vec(n, 9);
  std::vector<double> y(n, 0.0);
  for (auto _ : state) {
    k.mul_axpy(y.data(), a.data(), b.data(), n, 1e-3);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_items(state, n);
}

void BM_MaxPlus(benchmark::State& state, const kern::Kernels& k) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n, 10);
  const auto y = random_vec(n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.max_plus(x.data(), y.data(), n));
  }
  set_items(state, n);
}

void register_for_level(kern::Level level) {
  if (!kern::level_supported(level)) return;
  const kern::Kernels& k = kern::table(level);
  const std::string tag = std::string("<") + kern::level_name(level) + ">";
  const auto reg = [&](const char* name, KernelBench fn) {
    return benchmark::RegisterBenchmark((name + tag).c_str(),
                                        [&k, fn](benchmark::State& s) { fn(s, k); });
  };
  for (const long dims : {2L, 3L, 8L}) {
    for (const long count : {4L, 8L, 16L, 40L}) {
      reg("BM_Dist2Block", BM_Dist2Block)->Args({dims, count});
    }
    reg("BM_Dist2", BM_Dist2)->Arg(dims);
  }
  for (const long m : {4L, 8L, 16L, 40L}) {
    reg("BM_VecMat", BM_VecMat)->Arg(m);
    reg("BM_MatVec", BM_MatVec)->Arg(m);
  }
  for (const long n : {4L, 16L, 40L}) {
    reg("BM_Dot", BM_Dot)->Arg(n);
    reg("BM_Sum", BM_Sum)->Arg(n);
    reg("BM_DivScale", BM_DivScale)->Arg(n);
    reg("BM_Axpy", BM_Axpy)->Arg(n);
    reg("BM_Mul", BM_Mul)->Arg(n);
  }
  for (const long n : {8L, 40L, 256L}) {
    reg("BM_Normalize", BM_Normalize)->Arg(n);
    reg("BM_MulAxpy", BM_MulAxpy)->Arg(n);
    reg("BM_MaxPlus", BM_MaxPlus)->Arg(n);
  }
  for (const long w : {16L, 64L}) reg("BM_SumSumsq", BM_SumSumsq)->Arg(w);
  // scale: the padded EMA rows of M_CO and the track slab (4, 8) and the
  // backward pass's 40 states.
  for (const long n : {4L, 8L, 40L}) reg("BM_Scale", BM_Scale)->Arg(n);
}

}  // namespace

// metrics_main stamps the machine.* context fields and the library build
// type (this binary's, not libbenchmark's) into the JSON, which is what
// lets tools/bench_compare.py gate BENCH_kernels.json.
int main(int argc, char** argv) {
  for (const kern::Level level : {kern::Level::scalar, kern::Level::avx2}) {
    register_for_level(level);
  }
  return sentinel::bench_main::run(argc, argv);
}
