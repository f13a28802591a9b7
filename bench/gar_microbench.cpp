// Aggregation-rule micro-benchmark (google-benchmark): per-round latency
// of every GAR as a function of client count n and gradient dimension d,
// plus the threaded matrix kernels behind the SignGuard pipeline.
//
// This backs the paper's §IV-A "Efficiency" defense goal: SignGuard's
// filters cost O(nd) plus a clustering step on n 3-4 dim feature points,
// so it must land near Mean/TrMean — far below the O(n^2 d) of
// Krum/Bulyan — and that is exactly what this bench shows.
//
// All GAR benchmarks run the flat GradientMatrix entry point (the
// trainer's zero-copy path). The `/threads:N` benchmarks pin the pool size
// (overriding SIGNGUARD_THREADS) — e.g.
//   ./gar_microbench --benchmark_filter='SignGuard_50x1M'
// compares SignGuard aggregation at n=50, d=1M across pool sizes, and
//   ./gar_microbench --benchmark_filter='kernel_'
// prints the per-kernel timings (row norms, pairwise block on both
// SIGNGUARD_DIST backends, fused sign stats, clipped mean) the CI job
// logs. The committed large-cohort numbers (n up to 1024, d up to 1M,
// Gram-vs-direct speedups, BENCH_aggregate.json) come from the sibling
// aggregate_microbench binary.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <numeric>

#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "core/filters.h"
#include "fl/experiment.h"

namespace {

using namespace signguard;

// One cached matrix per shape: the 50 x 1M fixture alone is 200 MB, so
// every benchmark that needs it shares a single copy.
const common::GradientMatrix& cached_matrix(std::size_t n, std::size_t d) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  common::GradientMatrix>
      cache;
  auto it = cache.find({n, d});
  if (it == cache.end()) {
    Rng rng(42);
    common::GradientMatrix m(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = m.row(i);
      for (auto& v : row) v = static_cast<float>(rng.normal(0.1, 1.0));
    }
    it = cache.emplace(std::make_pair(n, d), std::move(m)).first;
  }
  return it->second;
}

// threads == 0 keeps the ambient pool size (SIGNGUARD_THREADS / cores).
void run_gar_matrix(benchmark::State& state, const std::string& name,
                    std::size_t threads) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  if (threads > 0) common::set_thread_count(threads);
  const auto& grads = cached_matrix(n, d);
  auto gar = fl::make_aggregator(name);
  Rng rng(7);
  agg::GarContext ctx;
  ctx.assumed_byzantine = n / 5;
  ctx.rng = &rng;
  for (auto _ : state) {
    auto out = gar->aggregate(grads, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
  if (threads > 0) common::set_thread_count(0);
}

// ---- matrix kernel micro-benchmarks ---------------------------------------

template <typename Fn>
void run_kernel(benchmark::State& state, std::size_t threads, Fn&& fn) {
  common::set_thread_count(threads);
  const auto& m =
      cached_matrix(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) fn(m);
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(m.rows() * m.cols() * sizeof(float)));
  common::set_thread_count(0);
}

void register_kernels() {
  static const std::size_t kKernelThreads[] = {1, 2, 4};
  for (const std::size_t t : kKernelThreads) {
    const auto suffix = "/threads:" + std::to_string(t);
    benchmark::RegisterBenchmark(
        ("kernel_row_norms" + suffix).c_str(),
        [t](benchmark::State& s) {
          run_kernel(s, t, [](const common::GradientMatrix& m) {
            auto norms = vec::row_norms(m);
            benchmark::DoNotOptimize(norms.data());
          });
        })
        ->Args({50, 1 << 20})
        ->Unit(benchmark::kMillisecond);
    // The pairwise block on both DistBackends: the Gram GEMM path the
    // aggregators use by default, and the scalar pair loops kept as the
    // SIGNGUARD_DIST=direct reference.
    for (const auto backend :
         {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
      const auto bname =
          backend == vec::DistBackend::kGram ? "gram" : "direct";
      benchmark::RegisterBenchmark(
          ("kernel_pairwise_dist2/" + std::string(bname) + suffix).c_str(),
          [t, backend](benchmark::State& s) {
            const auto ambient = vec::dist_backend();
            vec::set_dist_backend(backend);
            run_kernel(s, t, [](const common::GradientMatrix& m) {
              auto d2 = vec::pairwise_dist2(m);
              benchmark::DoNotOptimize(d2.data());
            });
            vec::set_dist_backend(ambient);
          })
          ->Args({50, 1 << 17})
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        ("kernel_sign_stats" + suffix).c_str(),
        [t](benchmark::State& s) {
          run_kernel(s, t, [](const common::GradientMatrix& m) {
            auto stats = sign_statistics(m, {});
            benchmark::DoNotOptimize(stats.data());
          });
        })
        ->Args({50, 1 << 20})
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("kernel_clipped_mean" + suffix).c_str(),
        [t](benchmark::State& s) {
          std::vector<std::size_t> all(50);
          std::iota(all.begin(), all.end(), 0);
          run_kernel(s, t, [&all](const common::GradientMatrix& m) {
            auto out = core::clipped_mean(m, all, 1.0);
            benchmark::DoNotOptimize(out.data());
          });
        })
        ->Args({50, 1 << 20})
        ->Unit(benchmark::kMillisecond);
  }
}

void register_all() {
  for (const auto& name : fl::table1_defenses()) {
    auto* b = benchmark::RegisterBenchmark(
        name.c_str(),
        [name](benchmark::State& s) { run_gar_matrix(s, name, 0); });
    b->Args({50, 8704});     // the Table I grid shape
    b->Args({50, 131072});   // larger model
    b->Args({200, 8704});    // more clients
    b->Unit(benchmark::kMillisecond);
  }

  // The acceptance proof point: SignGuard at n=50 clients, d=1M
  // coordinates, across pool sizes.
  static const std::size_t kScalingThreads[] = {1, 2, 4};
  for (const std::size_t t : kScalingThreads) {
    benchmark::RegisterBenchmark(
        ("SignGuard_50x1M/threads:" + std::to_string(t)).c_str(),
        [t](benchmark::State& s) { run_gar_matrix(s, "SignGuard", t); })
        ->Args({50, 1 << 20})
        ->Unit(benchmark::kMillisecond);
  }

  register_kernels();
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
