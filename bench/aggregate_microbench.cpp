// Large-cohort aggregation microbench: per-GAR server-side latency on the
// cohort grid n x {50, 256, 1024} x d x {100k, 1M} — the ROADMAP's
// "millions of users" direction stresses exactly the O(n^2 d) pairwise
// and O(n d log n) coordinate-statistic blocks the Table I defenses pay
// every round — plus Gram-vs-direct speedups for the pairwise backends.
// Emits machine-readable JSON (default BENCH_aggregate.json) for the
// bench trajectory and CI artifact upload.
//
// Usage:
//   ./aggregate_microbench [--json=BENCH_aggregate.json] [--min-ms=200]
//                          [--gars=Mean,Multi-Krum] [--max-n=N] [--max-d=D]
//                          [--assert-krum-speedup=3.0]
//                          [--assert-bulyan-krum-ratio=1.8]
//
// --assert-krum-speedup makes the binary exit non-zero unless the Gram
// backend beats the direct pair loops on the Multi-Krum n=256, d=1M
// aggregate by at least the given factor — CI uses it as a smoke guard
// against a silent fallback to the scalar pairwise path.
//
// --assert-bulyan-krum-ratio makes it exit non-zero unless Bulyan's wall
// time at n=256, d=100k is at most the given multiple of Multi-Krum's
// (both on the Gram backend). Both rules pay the same pairwise block, so
// the ratio isolates Bulyan's own selection and coordinate steps and
// runner speed cancels out of it.
//
// Everything is timed on ONE pool thread (set_thread_count(1)): the
// committed numbers compare kernel structure (GEMM tiling vs scalar
// loops, column panels vs strided walks), not core counts, and stay
// comparable across hosts. Shapes a rule cannot afford are skipped
// loudly (printed, never silently dropped): the O(n^2 d) and
// O(iters * n d) rules skip the 1024 x 1M cell, which only the O(n d)
// family (Mean/TrMean/Median/SignGuard) runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/gradient_matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "fl/experiment.h"

namespace signguard {
namespace {

// Expensive ops (seconds per run at the large shapes) naturally get one
// measurement; cheap ones repeat until the budget is spent.
obs::StopwatchReporter timer(200.0);

// rate: runs/s, or the speedup factor for group=speedup.
bench::Report report("signguard/aggregate_microbench/v1",
                     {"group", "name", "backend", "n", "d", "usec", "rate"},
                     1);

const char* backend_name(vec::DistBackend b) {
  return b == vec::DistBackend::kGram ? "gram" : "direct";
}

// Which rules can afford which cells. The 1024 x 1M cell (4 GB, ~10^12
// scalar flops for a pairwise block) is reserved for the O(n d) family.
bool runs_at(const std::string& gar, std::size_t n, std::size_t d) {
  const bool huge = n * d > std::size_t{256} * 1'000'000;
  if (!huge) return true;
  return gar == "Mean" || gar == "TrMean" || gar == "Median" ||
         gar == "SignGuard";
}

double time_gar(const std::string& name, const common::GradientMatrix& m) {
  auto gar = fl::make_aggregator(name);
  Rng rng(7);
  agg::GarContext ctx;
  ctx.assumed_byzantine = m.rows() / 5;
  ctx.rng = &rng;
  return timer.time_usec([&] {
    auto out = gar->aggregate(m, ctx);
    // The result feeds the entry count so the call cannot be elided.
    if (out.empty()) std::abort();
  });
}

std::string shape_tag(std::size_t n, std::size_t d) {
  return std::to_string(n) + "x" + (d >= 1'000'000 ? "1M" : "100k");
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  bench::banner("aggregate_microbench", fl::scale_from_env());
  bench::Gates gates(
      argc, argv,
      {{"krum-speedup", bench::Bound::kFloor,
        "Gram Multi-Krum speedup at n=256, d=1M: the Gram path regressed "
        "or silently fell back"},
       {"bulyan-krum-ratio", bench::Bound::kCeiling,
        "Bulyan / Multi-Krum wall at n=256, d=100k: Bulyan's selection or "
        "coordinate step regressed"}});
  timer.set_min_ms(bench::number_arg(argc, argv, "min-ms", 200));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_aggregate.json");
  // --gars takes a comma list, and may repeat.
  const auto gar_filter = bench::csv_values(argc, argv, "gars");
  const std::size_t max_n = bench::count_arg(argc, argv, "max-n", 1024);
  const std::size_t max_d = bench::count_arg(argc, argv, "max-d", 1'000'000);

  static const std::vector<std::string> kGars = {
      "Mean",       "TrMean", "Median", "GeoMed",
      "Multi-Krum", "Bulyan", "DnC",    "SignGuard"};
  static const std::size_t kCohorts[] = {50, 256, 1024};
  static const std::size_t kDims[] = {100'000, 1'000'000};

  // One pool thread for every measurement (see the header comment).
  common::set_thread_count(1);

  double bulyan_usec_256x100k = 0.0, krum_usec_256x100k = 0.0;

  // Shape-outer so at most one cohort matrix is resident (the 1024 x 1M
  // cell alone is 4 GB).
  for (const std::size_t d : kDims) {
    if (d > max_d) continue;
    for (const std::size_t n : kCohorts) {
      if (n > max_n) continue;
      // Build the matrix only for shapes some selected rule runs at (the
      // 1024 x 1M cell alone is 4 GB).
      const bool any_runs =
          std::any_of(kGars.begin(), kGars.end(), [&](const auto& gar) {
            return bench::keep(gar_filter, gar) && runs_at(gar, n, d);
          });
      if (!any_runs) {
        std::printf("shape n=%zu d=%zu skipped: no selected rule runs here\n",
                    n, d);
        continue;
      }
      const auto m = bench::fill_matrix(n, d);
      // Gram-vs-direct cells: the pairwise kernel everywhere it is
      // affordable, plus the full Multi-Krum aggregate (the paper's
      // flagship O(n^2 d) defense) — n=256, d=1M is the asserted pair.
      const bool speedup_cell =
          (d == 100'000 && n <= 256) || (d == 1'000'000 && n == 256);

      // Per-GAR timings on the default (Gram) backend.
      vec::set_dist_backend(vec::DistBackend::kGram);
      for (const auto& gar : kGars) {
        if (!bench::keep(gar_filter, gar)) continue;
        if (gar == "Multi-Krum" && speedup_cell)
          continue;  // timed on both backends below
        if (!runs_at(gar, n, d)) {
          std::printf("%-8s %-14s skipped at n=%zu d=%zu (cost cap)\n",
                      "gar", gar.c_str(), n, d);
          continue;
        }
        const double usec = time_gar(gar, m);
        report.row("gar", gar, "gram", n, d, usec, 1e6 / usec);
        if (gar == "Bulyan" && n == 256 && d == 100'000)
          bulyan_usec_256x100k = usec;
      }

      if (speedup_cell && bench::keep(gar_filter, "Multi-Krum")) {
        double usec_by_backend[2] = {0.0, 0.0};
        for (const auto backend :
             {vec::DistBackend::kDirect, vec::DistBackend::kGram}) {
          vec::set_dist_backend(backend);
          const double kernel_usec = timer.time_usec([&] {
            auto d2 = vec::pairwise_dist2_packed(m);
            if (d2.empty()) std::abort();
          });
          report.row("kernel", "pairwise_dist2", backend_name(backend), n, d,
                     kernel_usec, 1e6 / kernel_usec);
          const double gar_usec = time_gar("Multi-Krum", m);
          report.row("gar", "Multi-Krum", backend_name(backend), n, d, gar_usec,
                     1e6 / gar_usec);
          usec_by_backend[backend == vec::DistBackend::kGram ? 1 : 0] =
              gar_usec;
        }
        vec::set_dist_backend(vec::DistBackend::kGram);
        const double speedup = usec_by_backend[0] / usec_by_backend[1];
        report.row("speedup", "krum_" + shape_tag(n, d), "gram_vs_direct", n, d,
                   usec_by_backend[1], speedup);
        if (n == 256 && d == 1'000'000) gates.measure("krum-speedup", speedup);
        if (n == 256 && d == 100'000) krum_usec_256x100k = usec_by_backend[1];
      }
    }
  }

  // Measured only when the run timed both rules at n=256, d=100k.
  if (bulyan_usec_256x100k > 0.0 && krum_usec_256x100k > 0.0) {
    const double ratio = bulyan_usec_256x100k / krum_usec_256x100k;
    report.row("ratio", "bulyan_over_krum_256x100k", "gram", 256, 100'000,
               bulyan_usec_256x100k, ratio);
    gates.measure("bulyan-krum-ratio", ratio);
  }
  return bench::finish(report, json_path, gates);
}
