// Hierarchical sharded aggregation: the determinism contract (bitwise
// thread-count invariance, shards=1 == flat rule), the exact-merge
// property of the shard statistics, robustness of both root merge rules
// under a Byzantine minority, one-client shards, and the per-shard
// decode routing against the full-round decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "aggregators/baselines.h"
#include "aggregators/sharded.h"
#include "comm/shard.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/shard_stats.h"
#include "common/vecops.h"
#include "fl/experiment.h"
#include "test_support.h"

namespace signguard {
namespace {

using agg::GarContext;
using agg::ShardedAggregator;
using agg::ShardedConfig;
using agg::ShardMerge;

using test::gaussian_matrix;

ShardedAggregator::InnerFactory factory_for(const std::string& name) {
  return [name](std::uint64_t seed) { return fl::make_aggregator(name, seed); };
}

TEST(Sharded, ShardCountOneDelegatesBitwise) {
  const auto grads = gaussian_matrix(12, 40, 0.1, 1.0, 11);
  for (const char* name : {"Multi-Krum", "Median", "SignGuard"}) {
    auto flat = fl::make_aggregator(name, common::splitmix64(99 ^ 0ULL));
    ShardedAggregator sharded(factory_for(name), 99, {1, ShardMerge::kWeightedMean});
    Rng r1(5), r2(5);
    GarContext c1, c2;
    c1.assumed_byzantine = c2.assumed_byzantine = 2;
    c1.rng = &r1;
    c2.rng = &r2;
    const auto a = flat->aggregate(grads, c1);
    const auto b = sharded.aggregate(grads, c2);
    EXPECT_EQ(a, b) << name;
    EXPECT_EQ(flat->last_selected(), sharded.last_selected()) << name;
    EXPECT_EQ(sharded.last_shards(), 1u);
  }
}

TEST(Sharded, BitwiseThreadCountInvariant) {
  const auto grads = gaussian_matrix(48, 300, 0.05, 1.0, 21);
  for (const char* name : {"Multi-Krum", "SignGuard", "Mean"}) {
    for (const auto merge :
         {ShardMerge::kWeightedMean, ShardMerge::kMedianOfMeans}) {
      std::vector<std::vector<float>> outs;
      std::vector<std::vector<std::size_t>> sels;
      for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
        common::set_thread_count(threads);
        ShardedConfig cfg{8, merge, /*collect_stats=*/true};
        ShardedAggregator sharded(factory_for(name), 1234, cfg);
        Rng rng(7);
        GarContext ctx;
        ctx.assumed_byzantine = 9;
        ctx.rng = &rng;
        outs.push_back(sharded.aggregate(grads, ctx));
        sels.push_back(sharded.last_selected());
        EXPECT_EQ(sharded.last_shards(), 8u);
      }
      common::set_thread_count(0);
      EXPECT_EQ(outs[0], outs[1]) << name;  // bitwise
      EXPECT_EQ(sels[0], sels[1]) << name;
    }
  }
}

TEST(Sharded, SignCountsMergeExactlyAcrossAnyPartition) {
  auto grads = gaussian_matrix(37, 101, 0.0, 1.0, 31);
  // Plant exact zeros so all three counters are exercised.
  for (std::size_t i = 0; i < grads.rows(); i += 5) grads.at(i, 3) = 0.0f;

  const auto flat = common::shard_sign_counts(grads, {});
  EXPECT_EQ(flat.total(), 37u * 101u);

  // Arbitrary 5-way partition of the rows: counts must add exactly.
  common::ShardSignCounts merged;
  for (std::size_t s = 0; s < 5; ++s) {
    common::ShardSignCounts part;
    for (std::size_t i = s; i < grads.rows(); i += 5)
      part.merge(common::shard_sign_counts(grads.row(i)));
    merged.merge(part);
  }
  EXPECT_EQ(merged.pos, flat.pos);
  EXPECT_EQ(merged.zero, flat.zero);
  EXPECT_EQ(merged.neg, flat.neg);

  // Count -> proportion conversion matches sign_statistics' division.
  const auto stats = merged.to_stats();
  const auto row_stats = sign_statistics(grads.row(0));
  const auto row_counts = common::shard_sign_counts(grads.row(0));
  EXPECT_EQ(row_counts.to_stats().pos, row_stats.pos);
  EXPECT_EQ(row_counts.to_stats().zero, row_stats.zero);
  EXPECT_EQ(row_counts.to_stats().neg, row_stats.neg);
  EXPECT_DOUBLE_EQ(stats.pos + stats.zero + stats.neg, 1.0);
}

TEST(Sharded, PartialMergeMatchesFlatStatistics) {
  const auto grads = gaussian_matrix(24, 64, 0.1, 0.7, 41);

  common::ShardPartial flat;
  common::accumulate_stats(flat, grads, {});
  for (std::size_t i = 0; i < grads.rows(); ++i)
    common::accumulate_row(flat, grads.row(i), 1.0);

  // Three shards of 8 rows, merged in shard order.
  common::ShardPartial merged;
  for (std::size_t s = 0; s < 3; ++s) {
    common::GradientMatrix shard(8, grads.cols());
    for (std::size_t i = 0; i < 8; ++i) {
      const auto src = grads.row(s * 8 + i);
      std::copy(src.begin(), src.end(), shard.row(i).begin());
    }
    common::ShardPartial part;
    common::accumulate_stats(part, shard, {});
    for (std::size_t i = 0; i < 8; ++i)
      common::accumulate_row(part, shard.row(i), 1.0);
    merged.merge(part);
  }

  EXPECT_EQ(merged.clients, flat.clients);
  EXPECT_EQ(merged.signs.pos, flat.signs.pos);
  EXPECT_EQ(merged.signs.zero, flat.signs.zero);
  EXPECT_EQ(merged.signs.neg, flat.signs.neg);
  EXPECT_NEAR(merged.norm2_sum, flat.norm2_sum,
              1e-9 * std::abs(flat.norm2_sum));
  EXPECT_DOUBLE_EQ(merged.weight, flat.weight);

  // finalize_mean of the uniform-weight partial is the plain mean.
  const auto mean = vec::mean_of(grads);
  const auto merged_mean = common::finalize_mean(merged);
  ASSERT_EQ(merged_mean.size(), mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j)
    EXPECT_NEAR(merged_mean[j], mean[j], 1e-5);
}

TEST(Sharded, RobustUnderByzantineMinorityBothMerges) {
  const std::size_t n = 64, d = 32, n_byz = 12;
  Rng rng(51);
  const auto base = rng.normal_vector(d, 0.0, 1.0);
  common::GradientMatrix grads(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      grads.at(i, j) = i < n_byz ? -10.0f * base[j]
                                 : base[j] + float(rng.normal(0.0, 0.1));

  // Honest mean reference from the uncorrupted rows.
  std::vector<std::size_t> honest_ids;
  for (std::size_t i = n_byz; i < n; ++i) honest_ids.push_back(i);
  const auto honest_mean = vec::mean_of_subset(grads, honest_ids);

  for (const auto merge :
       {ShardMerge::kWeightedMean, ShardMerge::kMedianOfMeans}) {
    ShardedAggregator sharded(factory_for("Multi-Krum"), 77, {8, merge});
    Rng ctx_rng(9);
    GarContext ctx;
    ctx.assumed_byzantine = n_byz;
    ctx.rng = &ctx_rng;
    const auto out = sharded.aggregate(grads, ctx);
    EXPECT_LT(vec::dist(out, honest_mean), 0.5 * vec::norm(honest_mean));

    // The trusted-set union should admit honest clients at a much
    // higher rate than Byzantine ones.
    const auto sel = sharded.last_selected();
    std::size_t byz_sel = 0;
    for (const auto i : sel) byz_sel += i < n_byz ? 1 : 0;
    EXPECT_GT(sel.size(), byz_sel * 3);
  }
}

TEST(Sharded, OneClientShardsAreWellDefined) {
  const auto grads = gaussian_matrix(9, 16, 0.2, 0.5, 61);
  for (const char* name : {"Multi-Krum", "SignGuard", "DnC", "Median"}) {
    // shards > n clamps to n: every shard holds exactly one client.
    ShardedAggregator sharded(factory_for(name), 5, {64, ShardMerge::kWeightedMean});
    Rng rng(3);
    GarContext ctx;
    ctx.assumed_byzantine = 2;
    ctx.rng = &rng;
    const auto out = sharded.aggregate(grads, ctx);
    ASSERT_EQ(out.size(), grads.cols()) << name;
    for (const float v : out) EXPECT_TRUE(std::isfinite(v)) << name;
    EXPECT_EQ(sharded.last_shards(), grads.rows());
    for (const auto sz : sharded.last_shard_sizes()) EXPECT_EQ(sz, 1u);
  }
}

TEST(Sharded, MedianOfMeansWithSingletonShardsIsCoordinateMedian) {
  // With one client per shard and inner Mean, every shard aggregate is
  // its client's row, so the momed root is exactly the coordinate-wise
  // median of the round (median is permutation-invariant).
  const auto grads = gaussian_matrix(11, 23, 0.0, 1.0, 71);
  ShardedAggregator sharded(factory_for("Mean"), 5,
                            {11, ShardMerge::kMedianOfMeans});
  Rng rng(13);
  GarContext ctx;
  ctx.rng = &rng;
  const auto out = sharded.aggregate(grads, ctx);

  agg::MedianAggregator median;
  const auto expect = median.aggregate(grads, GarContext{});
  EXPECT_EQ(out, expect);
}

TEST(Sharded, EmptyRoundAndMissingRngThrow) {
  ShardedAggregator sharded(factory_for("Mean"), 5, {4, ShardMerge::kWeightedMean});
  common::GradientMatrix empty(0, 8);
  Rng rng(1);
  GarContext ctx;
  ctx.rng = &rng;
  EXPECT_THROW(sharded.aggregate(empty, ctx), std::invalid_argument);

  const auto grads = gaussian_matrix(8, 8, 0.0, 1.0, 81);
  GarContext no_rng;
  EXPECT_THROW(sharded.aggregate(grads, no_rng), std::invalid_argument);
}

TEST(Sharded, CollectedPartialCoversWholeRound) {
  const auto grads = gaussian_matrix(20, 33, 0.0, 1.0, 91);
  ShardedConfig cfg{4, ShardMerge::kWeightedMean, /*collect_stats=*/true};
  ShardedAggregator sharded(factory_for("Multi-Krum"), 3, cfg);
  Rng rng(2);
  GarContext ctx;
  ctx.assumed_byzantine = 4;
  ctx.rng = &rng;
  sharded.aggregate(grads, ctx);

  const auto& p = sharded.last_partial();
  EXPECT_EQ(p.clients, grads.rows());
  EXPECT_EQ(p.signs.total(), grads.rows() * grads.cols());
  const auto flat = common::shard_sign_counts(grads, {});
  EXPECT_EQ(p.signs.pos, flat.pos);
  std::size_t survivor_sum = 0;
  for (const auto sv : sharded.last_shard_survivors()) survivor_sum += sv;
  EXPECT_EQ(p.survivors, survivor_sum);
}

TEST(ShardDecode, SubsetDecodeMatchesFullRoundDecode) {
  const std::size_t n = 12, d = 700;
  const auto grads = gaussian_matrix(n, d, 0.0, 1.0, 101);
  const auto codec = comm::make_codec({comm::CodecKind::kSign1, 128, 0.05});

  std::vector<std::vector<std::uint8_t>> uplinks(n);
  std::vector<comm::CodecScratch> scratch;
  for (std::size_t i = 0; i < n; ++i)
    comm::encode_into(*codec, grads.row(i), uplinks[i], scratch);

  // Full-round decode as the reference.
  common::GradientMatrix full(n, d);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(comm::decode_into(*codec, uplinks[i], full.row(i)),
              comm::DecodeStatus::kOk);

  // A shard holding an arbitrary id subset decodes the same rows.
  const std::vector<std::size_t> ids = {1, 4, 5, 9, 11};
  common::GradientMatrix shard;
  const auto res = comm::decode_shard_into(*codec, uplinks, ids, d, shard);
  EXPECT_EQ(res.rejected, 0u);
  ASSERT_EQ(shard.rows(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto a = shard.row(i), b = full.row(ids[i]);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }

  // validate_shard mirrors the decode statuses without touching floats.
  const auto val = comm::validate_shard(*codec, uplinks, ids, d);
  EXPECT_EQ(val.rejected, 0u);
  for (const auto st : val.status) EXPECT_EQ(st, comm::DecodeStatus::kOk);
}

TEST(ShardDecode, HostileMemberIsRejectedAndZeroed) {
  const std::size_t n = 6, d = 300;
  const auto grads = gaussian_matrix(n, d, 0.5, 1.0, 111);
  const auto codec = comm::make_codec({comm::CodecKind::kSign1, 128, 0.05});

  std::vector<std::vector<std::uint8_t>> uplinks(n);
  std::vector<comm::CodecScratch> scratch;
  for (std::size_t i = 0; i < n; ++i)
    comm::encode_into(*codec, grads.row(i), uplinks[i], scratch);
  uplinks[3].resize(uplinks[3].size() / 2);  // truncated hostile buffer

  const std::vector<std::size_t> ids = {2, 3, 4};
  common::GradientMatrix shard;
  const auto res = comm::decode_shard_into(*codec, uplinks, ids, d, shard);
  EXPECT_EQ(res.rejected, 1u);
  EXPECT_EQ(res.status[0], comm::DecodeStatus::kOk);
  EXPECT_NE(res.status[1], comm::DecodeStatus::kOk);
  EXPECT_EQ(res.status[2], comm::DecodeStatus::kOk);
  for (const float v : shard.row(1)) EXPECT_EQ(v, 0.0f);

  const auto val = comm::validate_shard(*codec, uplinks, ids, d);
  EXPECT_EQ(val.rejected, 1u);
  EXPECT_EQ(val.status[1], res.status[1]);
}

}  // namespace
}  // namespace signguard
