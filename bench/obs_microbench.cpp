// Observability-overhead microbench: pins the cost of the obs subsystem
// itself (src/obs) so the instrumentation can stay compiled into every
// hot path. Three prices are measured:
//
//   primitives  per-call cost of obs::count() and Span construction on
//               the disabled path (no registry attached, SIGNGUARD_TRACE
//               off: one TLS load / one relaxed atomic load plus a
//               branch) and on the enabled paths (sharded atomic
//               fetch_add; ring-buffer span record),
//   round       wall time of the paper's flagship aggregation round
//               (SignGuard, n=256 clients, d=1M) with obs off, with
//               counters attached, and with counters + tracing,
//   bound       the analytic disabled-path overhead of that round: the
//               number of count()/Span sites it executes (from
//               MetricsRegistry::ops() and a traced event count) times
//               the measured disabled per-call cost, as a percentage of
//               the round — an upper bound that, unlike the raw round
//               deltas, is not washed out by run-to-run noise.
//
// Usage:
//   ./obs_microbench [--json=BENCH_obs.json] [--min-ms=200]
//                    [--n=256] [--d=1000000]
//                    [--assert-disabled-overhead-pct=2]
//
// --assert-disabled-overhead-pct makes the binary exit non-zero unless
// the analytic disabled-path bound stays at or below the given percent —
// CI pins the "observability is free when off" contract with it.
//
// Timed on ONE pool thread (like aggregate_microbench): the committed
// numbers compare instrumentation structure, not core counts.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/gradient_matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/signguard.h"
#include "obs/trace.h"

namespace signguard {
namespace {

obs::StopwatchReporter timer(200.0);

bench::Report report("signguard/obs_microbench/v1",
                     {"group", "name", "value", "unit"}, 1);

// Per-call cost of `op` in nanoseconds, amortized over a batch large
// enough that the stopwatch quantization vanishes.
template <class F>
double per_call_ns(F&& op) {
  constexpr int kBatch = 4096;
  const double usec = timer.time_usec([&] {
    for (int i = 0; i < kBatch; ++i) op();
  });
  return usec * 1e3 / kBatch;
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  bench::banner("obs_microbench", fl::scale_from_env());
  bench::Gates gates(argc, argv,
                     {{"disabled-overhead-pct", bench::Bound::kCeiling,
                       "analytic disabled-path overhead bound, %: "
                       "instrumentation is no longer free when off"}});
  timer.set_min_ms(bench::number_arg(argc, argv, "min-ms", 200));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_obs.json");
  const std::size_t n = bench::count_arg(argc, argv, "n", 256);
  const std::size_t d = bench::count_arg(argc, argv, "d", 1'000'000);

  common::set_thread_count(1);
  obs::set_trace_enabled(false);

  // --- primitives ------------------------------------------------------
  volatile std::uint64_t sink = 0;
  const double count_off_ns = per_call_ns([&] {
    obs::count(obs::Counter::kGemmFlops, 1);
    sink = sink + 1;  // the loop body must not be empty after inlining
  });
  report.row("primitives", "count_disabled", count_off_ns, "ns/call");
  const double span_off_ns = per_call_ns([&] {
    obs::Span span("bench/probe");
    sink = sink + 1;
  });
  report.row("primitives", "span_disabled", span_off_ns, "ns/call");

  {
    obs::MetricsRegistry reg(false);
    obs::ScopedMetrics scope(&reg);
    reg.begin_round(0);
    const double count_on_ns = per_call_ns([&] {
      obs::count(obs::Counter::kGemmFlops, 1);
    });
    reg.end_round();
    report.row("primitives", "count_enabled", count_on_ns, "ns/call");
  }
  {
    obs::set_trace_enabled(true);
    const double span_on_ns = per_call_ns([&] {
      obs::Span span("bench/probe");
    });
    obs::set_trace_enabled(false);
    obs::trace_reset();
    report.row("primitives", "span_enabled", span_on_ns, "ns/call");
    report.row("primitives", "spans_per_sec_enabled", 1e9 / span_on_ns, "/s");
  }

  // --- the SignGuard round, three ways ---------------------------------
  const auto m = bench::fill_matrix(n, d);
  core::SignGuard sg(core::plain_config(7));
  Rng rng(7);
  agg::GarContext ctx;
  ctx.assumed_byzantine = n / 5;
  ctx.rng = &rng;
  const auto round = [&] {
    auto out = sg.aggregate(m, ctx);
    if (out.empty()) std::abort();
  };

  const double round_off_usec = timer.time_usec(round);
  report.row("round", "signguard_obs_off", round_off_usec, "us");

  // How many obs call sites the round executes: count() invocations from
  // the registry's op counter, spans from a traced run.
  std::uint64_t ops_per_round = 0;
  std::uint64_t spans_per_round = 0;
  double round_counters_usec = 0.0;
  {
    obs::MetricsRegistry reg(false);
    obs::ScopedMetrics scope(&reg);
    reg.begin_round(0);
    round();
    ops_per_round = reg.ops();
    reg.end_round();
    reg.begin_round(1);
    round_counters_usec = timer.time_usec(round);
    reg.end_round();
  }
  report.row("round", "signguard_counters_on", round_counters_usec, "us");
  {
    obs::set_trace_enabled(true);
    obs::trace_reset();
    round();
    for (const auto& lane : obs::trace_snapshot())
      spans_per_round += lane.size();
    const double round_traced_usec = timer.time_usec(round);
    obs::set_trace_enabled(false);
    obs::trace_reset();
    report.row("round", "signguard_trace_on", round_traced_usec, "us");
  }
  report.row("round", "count_sites_per_round", double(ops_per_round), "calls");
  report.row("round", "span_sites_per_round", double(spans_per_round), "calls");

  // --- the disabled-path bound -----------------------------------------
  const double bound_pct = 100.0 *
                           (double(ops_per_round) * count_off_ns +
                            double(spans_per_round) * span_off_ns) /
                           (round_off_usec * 1e3);
  report.row("bound", "disabled_overhead", bound_pct, "%");
  gates.measure("disabled-overhead-pct", bound_pct);
  // The measured delta: honest but noisy, reported, never asserted.
  report.row("bound", "counters_on_delta",
             100.0 * (round_counters_usec - round_off_usec) / round_off_usec,
             "%");

  return bench::finish(report, json_path, gates);
}
