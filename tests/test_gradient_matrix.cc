// GradientMatrix layer tests: the flat representation itself and its
// typed ragged-import check, the thread pool behind it, the threaded
// matrix kernels, and the determinism contract: every defense in
// table1_defenses() aggregates bit-identically under any SIGNGUARD_THREADS.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <stdexcept>
#include <tuple>

#include "attacks/simple_attacks.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/vecops.h"
#include "data/synth_image.h"
#include "fl/experiment.h"
#include "nn/models.h"
#include "test_support.h"

namespace signguard {
namespace {

std::vector<std::vector<float>> gaussian_grads(std::size_t n, std::size_t d,
                                               double mean, double stddev,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(rng.normal_vector(d, mean, stddev));
  return out;
}

// Restores the automatic pool size when a test body returns.
struct ThreadCountGuard {
  ~ThreadCountGuard() { common::set_thread_count(0); }
};

// ------------------------------------------------------- representation

TEST(GradientMatrix, RowsAreContiguous) {
  common::GradientMatrix m(3, 4);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) m.at(i, j) = float(i * 4 + j);
  EXPECT_EQ(m.row(1).data(), m.data() + 4);
  EXPECT_EQ(m.row(2)[3], 11.0f);
}

TEST(GradientMatrix, FromViewsMatchesFromVectors) {
  const auto vs = gaussian_grads(5, 16, 0.0, 1.0, 2);
  const auto a = common::GradientMatrix::from_vectors(vs);
  const auto views = a.row_views();
  const auto b = common::GradientMatrix::from_views(views);
  for (const auto* m : {&a, &b}) {
    ASSERT_EQ(m->rows(), 5u);
    ASSERT_EQ(m->cols(), 16u);
    for (std::size_t i = 0; i < vs.size(); ++i)
      EXPECT_TRUE(std::ranges::equal(m->row(i), vs[i])) << "row " << i;
  }
}

TEST(GradientMatrix, RaggedImportThrowsTypedError) {
  // The longer row comes after the first, so a copy sized by the first
  // row would overrun the buffer.
  const std::vector<float> short_row = {1.0f, 2.0f};
  const std::vector<float> long_row = {3.0f, 4.0f, 5.0f};
  const std::vector<std::span<const float>> views = {short_row, short_row,
                                                     long_row};
  EXPECT_THROW(common::GradientMatrix::from_views(views),
               std::invalid_argument);
  const std::vector<std::vector<float>> vs = {short_row, long_row};
  EXPECT_THROW(common::GradientMatrix::from_vectors(vs),
               std::invalid_argument);
}

TEST(GradientMatrix, ResizeReusesBuffer) {
  common::GradientMatrix m(4, 8);
  const float* p = m.data();
  m.resize(2, 8);  // shrink: same allocation
  EXPECT_EQ(m.data(), p);
  EXPECT_EQ(m.rows(), 2u);
}

// --------------------------------------------------------- thread pool

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  common::set_thread_count(4);
  std::vector<std::atomic<int>> hits(1000);
  common::parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelChunks, ChunksPartitionTheRange) {
  ThreadCountGuard guard;
  common::set_thread_count(3);
  std::vector<int> owner(100, -1);
  common::parallel_chunks(
      100, [&](std::size_t begin, std::size_t end, std::size_t worker) {
        for (std::size_t i = begin; i < end; ++i) owner[i] = int(worker);
      });
  for (const int w : owner) EXPECT_GE(w, 0);
}

TEST(ParallelFor, EnvOverrideControlsPoolSize) {
  ThreadCountGuard guard;
  ASSERT_EQ(setenv("SIGNGUARD_THREADS", "3", 1), 0);
  common::set_thread_count(0);  // back to auto -> env
  EXPECT_EQ(common::thread_count(), 3u);
  unsetenv("SIGNGUARD_THREADS");
  EXPECT_GE(common::thread_count(), 1u);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  common::set_thread_count(4);
  std::atomic<int> total{0};
  common::parallel_for(8, [&](std::size_t) {
    common::parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

// ------------------------------------------------------ matrix kernels

TEST(MatrixKernels, RowNormsMatchScalarNorms) {
  const auto vs = gaussian_grads(9, 77, 0.2, 1.5, 3);
  const auto m = common::GradientMatrix::from_vectors(vs);
  const auto norms = vec::row_norms(m);
  for (std::size_t i = 0; i < vs.size(); ++i)
    EXPECT_DOUBLE_EQ(norms[i], vec::norm(vs[i]));
}

// The row kernels' contract is one sequential double chain per row, in
// coordinate order: this oracle is that chain, written out. Compared as
// bit patterns, so a NaN row must reproduce the oracle's NaN exactly.
double scalar_chain_dot(std::span<const float> a, std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j)
    acc += double(a[j]) * double(b[j]);
  return acc;
}

TEST(MatrixKernels, RowNormsAndDotsMatchScalarChainOracleBitwise) {
  ThreadCountGuard guard;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t n : {1, 3, 8, 9, 17}) {
    for (const std::size_t d : {1, 7, 8, 9, 1023, 4097}) {
      Rng rng(n * 10007 + d);
      common::GradientMatrix m(n, d);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j)
          m.at(i, j) = static_cast<float>(rng.normal());
      // Row 1 carries a NaN, row 2 an inf, row 4 both signs of inf (an
      // inf - inf NaN in the dots), when the matrix has those rows.
      if (n > 1) m.at(1, d / 2) = std::numeric_limits<float>::quiet_NaN();
      if (n > 2) m.at(2, d - 1) = -kInf;
      if (n > 4) {
        m.at(4, 0) = kInf;
        m.at(4, d - 1) = d > 1 ? -kInf : kInf;
      }
      std::vector<float> ref(d);
      for (auto& v : ref) v = static_cast<float>(rng.normal());
      ref[0] = 1e-30f;
      for (const std::size_t threads : {1, 4}) {
        common::set_thread_count(threads);
        const auto norms = vec::row_norms(m);
        const auto dots = vec::row_dots(m, ref);
        ASSERT_EQ(norms.size(), n);
        ASSERT_EQ(dots.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          SCOPED_TRACE(testing::Message() << "n " << n << " d " << d
                                          << " threads " << threads
                                          << " row " << i);
          EXPECT_EQ(bits(norms[i]),
                    bits(std::sqrt(scalar_chain_dot(m.row(i), m.row(i)))));
          EXPECT_EQ(bits(dots[i]), bits(scalar_chain_dot(m.row(i), ref)));
        }
      }
    }
  }
}

TEST(MatrixKernels, PairwiseBlocksMatchScalarKernels) {
  const auto vs = gaussian_grads(6, 40, 0.0, 1.0, 4);
  const auto m = common::GradientMatrix::from_vectors(vs);
  const auto prev_backend = vec::dist_backend();
  // The direct backend is the scalar pair loops — exact match required.
  vec::set_dist_backend(vec::DistBackend::kDirect);
  const auto d2 = vec::pairwise_dist2(m);
  const auto gram = vec::pairwise_dot(m);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) EXPECT_DOUBLE_EQ(d2[i * 6 + j], vec::dist2(vs[i], vs[j]));
      if (i == j)
        EXPECT_DOUBLE_EQ(gram[i * 6 + j], vec::dot(vs[i], vs[i]));
      else
        EXPECT_DOUBLE_EQ(gram[i * 6 + j], vec::dot(vs[i], vs[j]));
    }
  }
  // The Gram backend accumulates in float via one GEMM — tolerance only
  // (test_aggregate_scale stresses the adversarial cases).
  vec::set_dist_backend(vec::DistBackend::kGram);
  const auto d2g = vec::pairwise_dist2(m);
  const auto gramg = vec::pairwise_dot(m);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(d2g[i * 6 + j], d2[i * 6 + j], 1e-3);
      EXPECT_NEAR(gramg[i * 6 + j], gram[i * 6 + j], 1e-3);
    }
  vec::set_dist_backend(prev_backend);
}

TEST(MatrixKernels, MeanAndMomentsMatchRowViewKernels) {
  // The threaded matrix kernels against the sequential borrowed-view
  // kernels the attacks use.
  const auto vs = gaussian_grads(8, 51, 0.3, 0.7, 5);
  const auto m = common::GradientMatrix::from_vectors(vs);
  const std::vector<std::span<const float>> views(vs.begin(), vs.end());
  const auto mean_m = vec::mean_of(m);
  const auto mean_v = vec::mean_of(views);
  ASSERT_EQ(mean_m.size(), mean_v.size());
  for (std::size_t j = 0; j < mean_m.size(); ++j)
    EXPECT_NEAR(mean_m[j], mean_v[j], 1e-6);
  const auto mm = vec::coordinate_moments(m);
  const auto mv = vec::coordinate_moments(views);
  for (std::size_t j = 0; j < mm.mean.size(); ++j) {
    EXPECT_NEAR(mm.mean[j], mv.mean[j], 1e-6);
    EXPECT_NEAR(mm.stddev[j], mv.stddev[j], 1e-6);
  }
}

TEST(MatrixKernels, FusedSignStatisticsMatchPerRow) {
  const auto vs = gaussian_grads(10, 128, 0.1, 1.0, 6);
  const auto m = common::GradientMatrix::from_vectors(vs);
  Rng rng(7);
  const auto coords = select_coordinates(128, 0.5, rng);
  const auto fused = sign_statistics(m, coords);
  ASSERT_EQ(fused.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const SignStats s = sign_statistics(vs[i], coords);
    EXPECT_DOUBLE_EQ(fused[i].pos, s.pos);
    EXPECT_DOUBLE_EQ(fused[i].zero, s.zero);
    EXPECT_DOUBLE_EQ(fused[i].neg, s.neg);
  }
}

// Builds a crafted gradient population: m_byz malicious rows first (as
// the trainer lays them out), benign rows after.
common::GradientMatrix attacked_population(const std::string& attack_name,
                                           std::size_t n, std::size_t m_byz,
                                           std::size_t d,
                                           std::uint64_t seed) {
  Rng rng(seed + 2);
  const test::AttackRound round(
      test::gaussian_matrix(n - m_byz, d, 0.3, 0.8, seed),
      test::gaussian_matrix(m_byz, d, 0.3, 0.8, seed + 1), n, &rng);
  auto attack = fl::make_attack(attack_name);
  attack->begin_round(0, rng);
  std::vector<std::vector<float>> all = attack->craft(round.ctx);
  for (const auto row : round.benign_views)
    all.emplace_back(row.begin(), row.end());
  return common::GradientMatrix::from_vectors(all);
}

// ------------------------------------ thread-count determinism per GAR

class ThreadDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadDeterminism, OneThreadAndFourThreadsAgreeBitwise) {
  ThreadCountGuard guard;
  const auto defense = GetParam();
  const std::size_t n = 24, m_byz = 5, d = 512;
  const auto matrix = attacked_population("LIE", n, m_byz, d, 21);

  auto run_with = [&](std::size_t threads) {
    common::set_thread_count(threads);
    auto gar = fl::make_aggregator(defense, 2022);
    Rng rng(55);
    agg::GarContext ctx;
    ctx.assumed_byzantine = m_byz;
    ctx.rng = &rng;
    return gar->aggregate(matrix, ctx);
  };

  const auto single = run_with(1);
  const auto pooled = run_with(4);
  EXPECT_EQ(single, pooled) << "defense=" << defense;
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, ThreadDeterminism,
                         ::testing::ValuesIn(fl::table1_defenses()),
                         [](const auto& info) {
                           auto name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ------------------------------------- trainer-level thread determinism

TEST(TrainerThreads, ParallelClientLoopIsThreadCountInvariant) {
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 30;
  dcfg.test_per_class = 10;
  dcfg.seed = 5;
  const auto tt = data::make_synth_image(dcfg);
  fl::TrainerConfig cfg;
  cfg.n_clients = 12;
  cfg.byzantine_frac = 0.25;
  cfg.rounds = 6;
  cfg.batch_size = 4;
  cfg.eval_every = 3;
  cfg.eval_max_samples = 0;
  cfg.seed = 9;
  auto factory = [](std::uint64_t s) { return nn::make_mlp(256, 8, 10, s); };

  auto run_with = [&](std::size_t threads) {
    ThreadCountGuard guard;
    common::set_thread_count(threads);
    fl::Trainer trainer(tt, factory, cfg);
    attacks::SignFlipAttack attack;
    return trainer.run(attack, fl::make_aggregator("SignGuard"));
  };
  const fl::TrainingResult single = run_with(1);
  const fl::TrainingResult pooled = run_with(3);
  ASSERT_EQ(single.history.size(), pooled.history.size());
  for (std::size_t i = 0; i < single.history.size(); ++i)
    EXPECT_DOUBLE_EQ(single.history[i].test_accuracy,
                     pooled.history[i].test_accuracy);
  EXPECT_DOUBLE_EQ(single.final_accuracy, pooled.final_accuracy);
}

// --------------------------------------------------- quantile guards

TEST(QuantileGuards, EmptyInputsReturnNaN) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(stats::median(empty)));
  EXPECT_TRUE(std::isnan(stats::quantile(empty, 0.5)));
}

TEST(QuantileGuards, FullRangeQuantilesAreSafe) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 3.0);
  // Out-of-range q values clamp instead of indexing past the sample.
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, -0.5), 1.0);
}

}  // namespace
}  // namespace signguard
