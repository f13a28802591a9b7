// Degenerate-shape audit across the full defense set: n = 0 must be a
// typed error in every build mode, n = 1, an oversized Byzantine budget
// and d = 0 must all produce well-defined finite output — never UB.
// Includes the DnC small-budget regression (filter_frac * m rounding to
// zero used to disable filtering entirely).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "aggregators/baselines.h"
#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/minmax_minsum.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "data/synth_image.h"
#include "fl/experiment.h"
#include "fl/sweep.h"
#include "nn/models.h"
#include "test_support.h"

namespace signguard {
namespace {

using test::gaussian_matrix;

TEST(Degenerate, EmptyRoundThrowsTypedErrorForEveryDefense) {
  const common::GradientMatrix empty(0, 5);
  for (const auto& name : fl::table1_defenses()) {
    auto gar = fl::make_aggregator(name, 17);
    Rng rng(1);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 1;
    ctx.rng = &rng;
    EXPECT_THROW(gar->aggregate(empty, ctx), std::invalid_argument) << name;
  }
  // Ragged rows never reach a rule: the import rejects them.
  const std::vector<std::vector<float>> ragged = {{1.0f, 2.0f}, {3.0f}};
  EXPECT_THROW(common::GradientMatrix::from_vectors(ragged),
               std::invalid_argument);
}

TEST(Degenerate, SingleClientRoundIsWellDefined) {
  const auto grads = gaussian_matrix(1, 7, 0.3, 1.0, 23);
  for (const auto& name : fl::table1_defenses()) {
    auto gar = fl::make_aggregator(name, 17);
    Rng rng(2);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 0;
    ctx.rng = &rng;
    const auto out = gar->aggregate(grads, ctx);
    ASSERT_EQ(out.size(), 7u) << name;
    for (const float v : out) EXPECT_TRUE(std::isfinite(v)) << name;
  }
}

TEST(Degenerate, OversizedByzantineBudgetIsClamped) {
  const auto grads = gaussian_matrix(4, 8, 0.1, 1.0, 29);
  for (const auto& name : fl::table1_defenses()) {
    auto gar = fl::make_aggregator(name, 17);
    Rng rng(3);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 10;  // >= n/2: every rule clamps internally
    ctx.rng = &rng;
    const auto out = gar->aggregate(grads, ctx);
    ASSERT_EQ(out.size(), 8u) << name;
    for (const float v : out) EXPECT_TRUE(std::isfinite(v)) << name;
  }
}

TEST(Degenerate, ZeroDimensionalGradientsProduceEmptyOutput) {
  // d = 0 exercises DnC's coordinate subsample clamp and its power
  // iteration over width-zero rows (n = 6 keeps the filtering loop from
  // breaking out before the projection pass runs).
  const common::GradientMatrix grads(6, 0);
  for (const auto& name : fl::table1_defenses()) {
    auto gar = fl::make_aggregator(name, 17);
    Rng rng(4);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 1;
    ctx.rng = &rng;
    const auto out = gar->aggregate(grads, ctx);
    EXPECT_TRUE(out.empty()) << name;
  }
}

// ---- attack-side degenerate shapes (PR 7 TimeVaryingAttack contract:
// degenerate inputs are typed errors, never silent garbage) -------------

// A synthetic round: nb benign rows, m Byzantine.
test::AttackRound degenerate_round(std::size_t nb, std::size_t m,
                                   std::size_t d, Rng* rng) {
  return test::AttackRound(gaussian_matrix(nb, d, 0.1, 1.0, 91),
                           gaussian_matrix(m, d, 0.1, 1.0, 92), nb + m, rng);
}

TEST(DegenerateAttacks, EmptyHonestSetThrowsTypedError) {
  // All-Byzantine round: every omniscient attack needs benign statistics
  // and must refuse loudly instead of crafting from an empty set.
  Rng rng(7);
  const auto in = degenerate_round(0, 3, 5, &rng);
  EXPECT_THROW(attacks::LieAttack(0.3).craft(in.ctx), std::invalid_argument);
  EXPECT_THROW(attacks::MinMaxAttack().craft(in.ctx), std::invalid_argument);
  EXPECT_THROW(attacks::MinSumAttack().craft(in.ctx), std::invalid_argument);
  EXPECT_THROW(attacks::ByzMeanAttack().craft(in.ctx), std::invalid_argument);
  // LIE in auto-z mode hits the same wall one layer down (n == m).
  EXPECT_THROW(attacks::LieAttack(0.0).craft(in.ctx), std::invalid_argument);
}

TEST(DegenerateAttacks, ZeroByzantineCraftsNothing) {
  // m = 0 is a legal round shape (the trainer expects exactly m rows
  // back), not an error.
  Rng rng(8);
  const auto in = degenerate_round(4, 0, 5, &rng);
  EXPECT_TRUE(attacks::LieAttack(0.3).craft(in.ctx).empty());
  EXPECT_TRUE(attacks::MinMaxAttack().craft(in.ctx).empty());
  EXPECT_TRUE(attacks::MinSumAttack().craft(in.ctx).empty());
  EXPECT_TRUE(attacks::ByzMeanAttack().craft(in.ctx).empty());
}

TEST(DegenerateAttacks, ConstructorValidation) {
  EXPECT_THROW(attacks::ByzMeanAttack(nullptr, -0.1), std::invalid_argument);
  EXPECT_THROW(attacks::ByzMeanAttack(nullptr, 1.5), std::invalid_argument);
  EXPECT_THROW(attacks::ByzMeanAttack(nullptr, std::nan("")),
               std::invalid_argument);
  EXPECT_NO_THROW(attacks::ByzMeanAttack(nullptr, 0.5));
  EXPECT_THROW(attacks::LieAttack::z_max(3, 3), std::invalid_argument);
  EXPECT_THROW(attacks::LieAttack::z_max(2, 5), std::invalid_argument);
  EXPECT_THROW(
      attacks::make_perturbation(std::span<const attacks::GradientView>(),
                                 attacks::Perturbation::kInverseStd),
      std::invalid_argument);
}

// The non-IID skew s is the IID fraction of the partition: outside
// [0, 1] the partitioner would index past its sample permutation. The
// trainer refuses it at construction, so a sweep reports it per scenario.
TEST(Degenerate, NoniidSkewOutsideUnitIntervalThrows) {
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 4;
  dcfg.test_per_class = 1;
  const auto tt = data::make_synth_image(dcfg);
  const fl::ModelFactory mlp = [](std::uint64_t seed) {
    return nn::make_mlp(256, 4, 10, seed);
  };
  fl::TrainerConfig cfg;
  cfg.n_clients = 4;
  cfg.rounds = 1;
  cfg.noniid = true;
  for (const double s : {-0.5, 1.5, double(NAN)})
    EXPECT_THROW(
        {
          cfg.noniid_s = s;
          fl::Trainer(tt, mlp, cfg);
        },
        std::invalid_argument)
        << s;
  for (const double s : {0.0, 1.0}) {
    cfg.noniid_s = s;
    EXPECT_NO_THROW(fl::Trainer(tt, mlp, cfg)) << s;
  }
  cfg.noniid = false;  // s is unused on the IID path
  cfg.noniid_s = 1.5;
  EXPECT_NO_THROW(fl::Trainer(tt, mlp, cfg));

  fl::ScenarioSpec spec;
  spec.skew = 1.5;
  spec.rounds = 1;
  spec.n_clients = 10;
  fl::SweepOptions opts;
  opts.scale = fl::Scale::kSmoke;
  const auto results = fl::run_sweep({spec}, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].error.find("noniid_s"), std::string::npos)
      << results[0].error;
}

TEST(DnC, SmallBudgetStillRemovesCollinearOutlier) {
  // The regression: at m = 1 with filter_frac < 0.5,
  // round(filter_frac * m) == 0 and DnC removed nobody while still
  // paying the full subsample + power-iteration passes. The clamp makes
  // any positive budget drop at least one candidate.
  const std::size_t n = 8, d = 16;
  Rng rng(37);
  const auto base = rng.normal_vector(d, 0.0, 1.0);
  common::GradientMatrix grads(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      grads.at(i, j) = i == n - 1 ? 100.0f * base[j]
                                  : base[j] + float(rng.normal(0.0, 0.01));

  agg::DnCConfig cfg;
  cfg.filter_frac = 0.25;  // round(0.25 * 1) == 0 without the clamp
  cfg.subsample_frac = 1.0;
  agg::DnCAggregator dnc(cfg);
  Rng ctx_rng(5);
  agg::GarContext ctx;
  ctx.assumed_byzantine = 1;
  ctx.rng = &ctx_rng;
  const auto out = dnc.aggregate(grads, ctx);

  const auto sel = dnc.last_selected();
  ASSERT_EQ(sel.size(), n - 1);  // exactly one candidate removed
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), n - 1) == sel.end())
      << "collinear outlier survived the filter";

  // The aggregate is the honest mean, far from the outlier's scale.
  std::vector<std::size_t> honest_ids;
  for (std::size_t i = 0; i + 1 < n; ++i) honest_ids.push_back(i);
  const auto honest_mean = vec::mean_of_subset(grads, honest_ids);
  EXPECT_LT(vec::dist(out, honest_mean), 1e-4 * vec::norm(honest_mean) + 1e-4);
}

}  // namespace
}  // namespace signguard
