// Failure-injection tests: Byzantine clients may send ARBITRARY bytes
// (Definition 2), including NaN / infinity / zero-length pathologies. The
// defense pipeline must stay finite and keep training alive. Also
// end-to-end "mini Table I" robustness properties on a small federation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "aggregators/baselines.h"
#include "attacks/attack.h"
#include "core/signguard.h"
#include "common/vecops.h"
#include "data/synth_image.h"
#include "fl/experiment.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "test_support.h"

namespace signguard {
namespace {

// 16 benign Gaussian rows followed by 4 rows of `poison`.
common::GradientMatrix poisoned_round(float poison, std::uint64_t seed) {
  auto g = test::gaussian_matrix(20, 512, 0.2, 0.5, seed);
  for (std::size_t i = 16; i < 20; ++i) std::ranges::fill(g.row(i), poison);
  return g;
}

bool all_finite(std::span<const float> v) {
  for (const float x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

TEST(FailureInjection, SignGuardRejectsNaNGradients) {
  const auto g = poisoned_round(std::numeric_limits<float>::quiet_NaN(), 1);
  core::SignGuard sg(core::plain_config());
  const auto out = sg.aggregate(g, agg::GarContext{});
  // NaN norms fail the band check, so the poisoned gradients are dropped
  // by the norm filter and the aggregate stays finite.
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
  EXPECT_TRUE(all_finite(out));
}

TEST(FailureInjection, SignGuardRejectsInfinityGradients) {
  const auto g = poisoned_round(std::numeric_limits<float>::infinity(), 2);
  core::SignGuard sg(core::plain_config());
  const auto out = sg.aggregate(g, agg::GarContext{});
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
  EXPECT_TRUE(all_finite(out));
}

TEST(FailureInjection, SignGuardRejectsZeroGradientsFromMinority) {
  const auto g = poisoned_round(0.0f, 3);
  core::SignGuard sg(core::plain_config());
  sg.aggregate(g, agg::GarContext{});
  // Zero norm fails the lower threshold L = 0.1.
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
}

TEST(FailureInjection, MedianSurvivesNaNMinority) {
  // Coordinate-wise median with a NaN minority: std::nth_element with
  // NaNs is UB-adjacent in general; our pipeline's contract is that
  // SignGuard-style norm screening happens first. This test documents
  // that the *robust mean family* (trimmed mean over finite values)
  // stays finite when NaNs are pre-filtered.
  const auto g = test::gaussian_matrix(9, 64, 0.5, 0.2, 4);
  core::NormFilterResult screen = core::norm_filter(g, {});
  EXPECT_EQ(screen.accepted.size(), 9u);
  agg::MedianAggregator median;
  const auto out = median.aggregate(g, agg::GarContext{});
  EXPECT_TRUE(all_finite(out));
}

// A Byzantine attack that sends NaN payloads through the full trainer.
class NaNAttack final : public attacks::Attack {
 public:
  std::vector<std::vector<float>> craft(
      const attacks::AttackContext& ctx) override {
    const std::size_t d =
        ctx.benign_grads.empty() ? 0 : ctx.benign_grads.front().size();
    return std::vector<std::vector<float>>(
        ctx.n_byzantine,
        std::vector<float>(d, std::numeric_limits<float>::quiet_NaN()));
  }
  std::string name() const override { return "NaN"; }
};

TEST(FailureInjection, TrainingSurvivesNaNAttackWithSignGuard) {
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 40;
  dcfg.test_per_class = 10;
  const auto tt = data::make_synth_image(dcfg);
  fl::TrainerConfig cfg;
  cfg.n_clients = 20;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 30;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 10;
  cfg.eval_max_samples = 0;
  fl::Trainer trainer(
      tt, [](std::uint64_t seed) { return nn::make_mlp(256, 16, 10, seed); },
      cfg);
  NaNAttack attack;
  const auto res = trainer.run(
      attack, std::make_unique<core::SignGuard>(core::plain_config()));
  EXPECT_GT(res.best_accuracy, 50.0);
  EXPECT_TRUE(std::isfinite(res.final_accuracy));
  EXPECT_DOUBLE_EQ(res.selection.malicious_rate, 0.0);
}

// ---- mini Table I property: SignGuard stays near baseline ------------------

class MiniTableSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(MiniTableSweep, SignGuardWithinMarginOfBaseline) {
  const std::string attack_name = GetParam();
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 40;
  dcfg.test_per_class = 10;
  const auto tt = data::make_synth_image(dcfg);
  fl::TrainerConfig cfg;
  cfg.n_clients = 20;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 50;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 10;
  cfg.eval_max_samples = 0;
  const auto model = [](std::uint64_t seed) {
    return nn::make_mlp(256, 16, 10, seed);
  };
  fl::Trainer trainer(tt, model, cfg);

  attacks::NoAttack none;
  const double baseline =
      trainer.run(none, fl::make_aggregator("Mean")).best_accuracy;

  auto attack = fl::make_attack(attack_name);
  const double defended =
      trainer.run(*attack, fl::make_aggregator("SignGuard")).best_accuracy;

  // Generous margin: the point is "not broken", not exact parity — at
  // this tiny scale run-to-run spread is a few points.
  EXPECT_GT(defended, baseline - 15.0) << attack_name;
}

INSTANTIATE_TEST_SUITE_P(StrongAttacks, MiniTableSweep,
                         ::testing::Values("ByzMean", "LIE", "MinMax",
                                           "MinSum", "Random", "Noise"));

}  // namespace
}  // namespace signguard
