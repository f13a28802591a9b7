// Hierarchical-aggregation microbench: the sharded tree at cohort sizes
// the flat path cannot run. Three tiers, all single-pool-thread timed so
// the committed numbers compare tree structure, not core counts:
//
//   1. flat vs sharded at n=1024, d=100k — the largest cell the flat
//      O(n^2 d) Multi-Krum still affords (8.3 s in BENCH_aggregate.json),
//      so the tree's speedup is measured, not projected;
//   2. end-to-end ShardedAggregator rounds at n=4096, d=100k, S=16 —
//      including a sign1 wire cell routed through comm::decode_shard_into
//      (per-shard decode of exactly the shard's uplinks, never the flat
//      round matrix);
//   3. a streaming n=65536, d=32768, S=256 robust-aggregation round with
//      20% Byzantine clients: rows are generated shard by shard, each
//      shard filtered by its own Multi-Krum, partials merged at the root
//      — the flat n x d matrix (8.6 GB) and the flat packed pairwise
//      triangle (8.6 GB, 7.0e13 multiply-adds) never exist. The round's
//      output is checked against the honest mean (robustness, not just
//      completion) before it is recorded.
//
// A flat-infeasibility estimate group records what tier 3 would cost
// without the tree, projected from the measured per-shard throughput.
// A thread-invariance group re-runs one sharded aggregate under pool
// sizes {1, 4} and fails the binary unless the outputs are bitwise
// identical — the determinism contract from src/aggregators/sharded.h,
// enforced where the bench numbers are produced.
//
// Usage:
//   ./shard_microbench [--json=BENCH_shard.json] [--min-ms=200]
//                      [--max-clients=65536] [--gars=Multi-Krum,...]
//                      [--assert-multikrum-4096-sec=SEC]
//
// --max-clients=4096 lets CI skip the streaming tier (minutes of wall
// clock) while still exercising every code path; the committed JSON is
// generated locally with the full grid. --assert-multikrum-4096-sec
// makes the binary exit non-zero when the n=4096, S=16 Multi-Krum round
// exceeds the cap — the CI guard that sharding keeps the flagship
// defense inside a round budget the flat path already cannot meet.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aggregators/sharded.h"
#include "bench_common.h"
#include "comm/shard.h"
#include "comm/wire.h"
#include "common/gradient_matrix.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/shard_stats.h"
#include "common/vecops.h"
#include "fl/experiment.h"

namespace signguard {
namespace {

using bench::Stopwatch;

// Expensive cells naturally run once; cheap ones repeat until the
// budget is spent.
obs::StopwatchReporter timer(200.0);

// rate: rounds/s, speedup factor, or the estimate value.
bench::Report report("signguard/shard_microbench/v1",
                     {"group", "name", "n", "d", "shards", "usec", "rate"},
                     1);

// bench::fill_value rows: the value of global client `i`, coordinate `j`
// depends only on (i, j), so the streaming tier can regenerate any
// shard's rows without a flat matrix. Clients with id % 5 == 4 are
// Byzantine and send -10x their honest row — large-norm collinear poison
// the per-shard Multi-Krum must drop.
float client_value(std::size_t i, std::size_t j, std::size_t d) {
  const float v = bench::fill_value(i, j, d);
  return i % 5 == 4 ? -10.0f * v : v;
}

void fill_rows(common::GradientMatrix& m, std::size_t first_client) {
  const std::size_t d = m.cols();
  common::parallel_for(m.rows(), [&](std::size_t i) {
    const auto row = m.row(i);
    for (std::size_t j = 0; j < d; ++j)
      row[j] = client_value(first_client + i, j, d);
  });
}

std::uint64_t checksum(std::span<const float> v) {
  return common::fnv1a64(v.data(), v.size() * sizeof(float),
                         common::kFnvOffsetBasis);
}

agg::ShardedAggregator make_sharded(const std::string& gar,
                                    std::size_t shards) {
  agg::ShardedConfig cfg;
  cfg.shards = shards;
  return agg::ShardedAggregator(
      [gar](std::uint64_t s) { return fl::make_aggregator(gar, s); }, 0x5d17,
      cfg);
}

// One sharded aggregate on a fresh scenario-stream Rng each run, so
// repeats are identical work.
double time_sharded(agg::ShardedAggregator& sharded,
                    const common::GradientMatrix& m, std::size_t byz) {
  return timer.time_usec([&] {
    Rng rng(7);
    agg::GarContext ctx;
    ctx.assumed_byzantine = byz;
    ctx.rng = &rng;
    auto out = sharded.aggregate(m, ctx);
    if (out.empty()) std::abort();
  });
}

// --- tier 3: streaming n=65536 round, no flat matrix ever ---
// Returns the round's wall seconds; records generate/aggregate splits
// and verifies the root output against the honest mean.
bool run_streaming_round(std::size_t n, std::size_t d, std::size_t S) {
  const std::size_t per = n / S;
  const std::size_t byz_s = per / 5 + 1;  // id % 5 == 4 pattern, rounded up

  common::GradientMatrix shard_mat(per, d);
  common::GradientMatrix shard_aggs(S, d);
  common::ShardPartial root;
  common::ShardPartial honest_ref;  // flat honest mean, for the check
  std::vector<std::size_t> survivors(S, 0);

  double gen_sec = 0.0, agg_sec = 0.0;
  Stopwatch total;
  const std::uint64_t shard_root = Rng(7).engine()();
  for (std::size_t s = 0; s < S; ++s) {
    Stopwatch gw;
    fill_rows(shard_mat, s * per);
    for (std::size_t i = 0; i < per; ++i)
      if ((s * per + i) % 5 != 4)
        common::accumulate_row(honest_ref, shard_mat.row(i), 1.0);
    gen_sec += gw.seconds();

    Stopwatch aw;
    auto rule = fl::make_aggregator("Multi-Krum",
                                    common::splitmix64(0x5d17 ^ s));
    Rng shard_rng = Rng::stream(shard_root, s);
    agg::GarContext ctx;
    ctx.assumed_byzantine = byz_s;
    ctx.rng = &shard_rng;
    const auto out = rule->aggregate(shard_mat, ctx);
    const auto sel = rule->last_selected();
    survivors[s] = sel.empty() ? per : sel.size();
    std::copy(out.begin(), out.end(), shard_aggs.row(s).begin());
    common::accumulate_stats(root, shard_mat, {});
    root.survivors += survivors[s];
    common::accumulate_row(root, shard_aggs.row(s), double(survivors[s]));
    agg_sec += aw.seconds();
  }
  const auto merged = common::finalize_mean(root);
  const double total_sec = total.seconds();

  // Robustness, not just completion: the survivor-weighted root mean
  // must sit on the honest mean, far below the -10x poison scale.
  const auto honest_mean = common::finalize_mean(honest_ref);
  const double err = vec::dist(merged, honest_mean);
  const double ref = vec::norm(honest_mean);
  std::printf("stream     n=%zu: honest-mean dist %.3f (|honest| %.3f), "
              "%zu/%zu survivors\n",
              n, err, ref, root.survivors, root.clients);
  if (!(err < 0.25 * ref)) {
    std::fprintf(stderr,
                 "FAIL: streaming n=%zu round is not robust: dist %.3f vs "
                 "honest norm %.3f\n",
                 n, err, ref);
    return false;
  }
  report.row("stream", "generate", n, d, S, gen_sec * 1e6, double(n) / gen_sec);
  report.row("stream", "multikrum_round", n, d, S, agg_sec * 1e6,
             double(n) / agg_sec);
  report.row("stream", "round_total", n, d, S, total_sec * 1e6,
             1.0 / total_sec);

  // What the flat path would need for the same round: the pairwise block
  // alone is (n^2/2) d multiply-adds and an (n^2/2) float triangle, both
  // projected from the measured per-shard throughput (each shard is the
  // same kernel at n/S rows, so flat = S^2 x the sharded pairwise work).
  const double flat_madds = 0.5 * double(n) * double(n) * double(d);
  const double shard_madds = double(S) * 0.5 * double(per) * double(per) *
                             double(d);
  const double flat_proj_sec = agg_sec * flat_madds / shard_madds;
  report.row("estimate", "flat_pairwise_madds", n, d, 1, 0.0, flat_madds);
  report.row("estimate", "flat_triangle_gb", n, d, 1, 0.0,
             0.5 * double(n) * double(n) * 4.0 / 1e9);
  report.row("estimate", "flat_matrix_gb", n, d, 1, 0.0,
             double(n) * double(d) * 4.0 / 1e9);
  report.row("estimate", "flat_projected_sec", n, d, 1, flat_proj_sec * 1e6,
             flat_proj_sec);
  return true;
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  bench::banner("shard_microbench", fl::scale_from_env());
  bench::Gates gates(argc, argv,
                     {{"multikrum-4096-sec", bench::Bound::kCeiling,
                       "sharded Multi-Krum n=4096 round, s: sharding no "
                       "longer keeps the round inside its budget"}});
  timer.set_min_ms(bench::number_arg(argc, argv, "min-ms", 200));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_shard.json");
  const auto gar_filter = bench::csv_values(argc, argv, "gars");
  const std::size_t max_clients =
      bench::count_arg(argc, argv, "max-clients", 65536);

  // Every timed cell runs on one pool thread (see the header comment).
  common::set_thread_count(1);

  // --- tier 1: flat vs sharded where flat is still affordable ---
  {
    const std::size_t n = 1024, d = 100'000, S = 16;
    common::GradientMatrix m(n, d);
    fill_rows(m, 0);
    if (bench::keep(gar_filter, "Multi-Krum")) {
      auto flat = fl::make_aggregator("Multi-Krum");
      const double flat_usec = timer.time_usec([&] {
        Rng rng(7);
        agg::GarContext ctx;
        ctx.assumed_byzantine = n / 5 + 1;
        ctx.rng = &rng;
        auto out = flat->aggregate(m, ctx);
        if (out.empty()) std::abort();
      });
      report.row("flatvs", "multikrum_flat", n, d, 1, flat_usec,
                 1e6 / flat_usec);
      auto sharded = make_sharded("Multi-Krum", S);
      const double shard_usec = time_sharded(sharded, m, n / 5 + 1);
      report.row("flatvs", "multikrum_sharded", n, d, S, shard_usec,
                 1e6 / shard_usec);
      report.row("flatvs", "speedup", n, d, S, shard_usec,
                 flat_usec / shard_usec);
    }
  }

  // --- tier 2: end-to-end sharded rounds at n=4096 ---
  {
    const std::size_t n = 4096, d = 100'000, S = 16;
    common::GradientMatrix m(n, d);
    fill_rows(m, 0);
    for (const char* gar : {"Multi-Krum", "SignGuard", "Median"}) {
      if (!bench::keep(gar_filter, gar)) continue;
      auto sharded = make_sharded(gar, S);
      const double usec = time_sharded(sharded, m, n / 5 + 1);
      report.row("sharded", gar, n, d, S, usec, 1e6 / usec);
      if (std::string(gar) == "Multi-Krum")
        gates.measure("multikrum-4096-sec", usec / 1e6);
    }

    // Wire cell: encode the round once (sign1), then route each shard's
    // uplinks through comm::decode_shard_into — the per-shard decode path
    // the 65536-client deployment would use instead of a flat decode.
    comm::CompressionSpec spec;
    spec.codec = comm::CodecKind::kSign1;
    const auto codec = comm::make_codec(spec);
    std::vector<std::vector<std::uint8_t>> uplinks(n);
    std::vector<comm::CodecScratch> scratch;
    const double enc_usec = timer.time_usec([&] {
      common::parallel_for(n, [&](std::size_t i) {
        comm::encode_into(*codec, m.row(i), uplinks[i], scratch);
      });
    });
    report.row("wire", "sign1_encode_round", n, d, 1, enc_usec, 1e6 / enc_usec);

    std::vector<std::size_t> ids;
    common::GradientMatrix shard_mat;
    const std::size_t per = n / S;
    const double dec_usec = timer.time_usec([&] {
      std::size_t rejected = 0;
      for (std::size_t s = 0; s < S; ++s) {
        ids.clear();
        for (std::size_t i = 0; i < per; ++i) ids.push_back(s * per + i);
        rejected +=
            comm::decode_shard_into(*codec, uplinks, ids, d, shard_mat)
                .rejected;
      }
      if (rejected != 0) std::abort();  // honest round: all must decode
    });
    report.row("wire", "sign1_decode_shards", n, d, S, dec_usec,
               1e6 / dec_usec);
  }

  // --- tier 3: the cohort size the flat path cannot run ---
  bool ok = true;
  if (max_clients >= 65536) {
    ok = run_streaming_round(65536, 32768, 256);
  } else {
    std::printf("stream     skipped (--max-clients=%zu < 65536)\n",
                max_clients);
  }

  // --- determinism: one sharded aggregate across pool sizes {1, 4} ---
  {
    const std::size_t n = 512, d = 4096, S = 8;
    common::GradientMatrix m(n, d);
    fill_rows(m, 0);
    std::uint64_t sums[2] = {0, 0};
    const std::size_t pools[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      common::set_thread_count(pools[t]);
      auto sharded = make_sharded("Multi-Krum", S);
      Rng rng(7);
      agg::GarContext ctx;
      ctx.assumed_byzantine = n / 5 + 1;
      ctx.rng = &rng;
      sums[t] = checksum(sharded.aggregate(m, ctx));
    }
    common::set_thread_count(1);
    if (sums[0] != sums[1]) {
      std::fprintf(stderr,
                   "FAIL: sharded aggregate differs across pool sizes "
                   "(%016llx vs %016llx)\n",
                   (unsigned long long)sums[0], (unsigned long long)sums[1]);
      ok = false;
    }
    report.row("invariance", "threads_1_vs_4", n, d, S, 0.0,
               sums[0] == sums[1] ? 1.0 : 0.0);
  }

  return bench::finish(report, json_path, gates, ok);
}
