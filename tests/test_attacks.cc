// Attack library tests: every attack's defining mathematical property is
// asserted directly on synthetic gradient populations — LIE's Eq. (1)
// crafting rule and Eq. (2) attack factor, ByzMean's exact-mean identity
// (Eq. 8), Min-Max/Min-Sum constraint satisfaction and gamma maximality
// (Eqs. 14/15), and the simple perturbation attacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/minmax_minsum.h"
#include "attacks/simple_attacks.h"
#include "attacks/time_varying.h"
#include "common/vecops.h"
#include "test_support.h"

namespace signguard::attacks {
namespace {

using common::GradientMatrix;
using test::gaussian_matrix;

TEST(NoAttack, ForwardsHonestGradients) {
  Rng rng(1);
  const auto benign = gaussian_matrix(8, 16, 0.1, 1.0, 2);
  const auto byz = gaussian_matrix(2, 16, 0.1, 1.0, 3);
  NoAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 10, &rng).ctx);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(out[0], byz.row(0)));
  EXPECT_TRUE(std::ranges::equal(out[1], byz.row(1)));
}

TEST(RandomAttack, StatisticsMatchConfiguredGaussian) {
  Rng rng(4);
  const auto benign = gaussian_matrix(8, 4000, 0.5, 1.0, 5);
  const auto byz = gaussian_matrix(2, 4000, 0.5, 1.0, 6);
  RandomAttack attack(0.0, 0.5);
  const auto out = attack.craft(test::AttackRound(benign, byz, 10, &rng).ctx);
  ASSERT_EQ(out.size(), 2u);
  double mean_acc = 0.0;
  for (const float v : out[0]) mean_acc += v;
  EXPECT_NEAR(mean_acc / 4000.0, 0.0, 0.05);
  // Per-vector empirical stddev near 0.5.
  const double nrm = vec::norm(out[0]);
  EXPECT_NEAR(nrm / std::sqrt(4000.0), 0.5, 0.05);
}

TEST(NoiseAttack, PerturbsHonestGradient) {
  Rng rng(7);
  const auto benign = gaussian_matrix(8, 2000, 0.0, 1.0, 8);
  const auto byz = gaussian_matrix(2, 2000, 0.0, 1.0, 9);
  NoiseAttack attack(0.0, 0.5);
  const auto out = attack.craft(test::AttackRound(benign, byz, 10, &rng).ctx);
  const auto delta = vec::sub(out[0], byz.row(0));
  EXPECT_NEAR(vec::norm(delta) / std::sqrt(2000.0), 0.5, 0.05);
}

TEST(SignFlip, ExactNegation) {
  Rng rng(10);
  const auto benign = gaussian_matrix(4, 8, 0.0, 1.0, 11);
  const auto byz = gaussian_matrix(2, 8, 0.0, 1.0, 12);
  SignFlipAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 6, &rng).ctx);
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(out[0][j], -byz.at(0, j));
}

TEST(ReverseScaling, NegatesAndScales) {
  Rng rng(13);
  const auto benign = gaussian_matrix(4, 8, 0.0, 1.0, 14);
  const auto byz = gaussian_matrix(1, 8, 0.0, 1.0, 15);
  ReverseScalingAttack attack(100.0);
  const auto out = attack.craft(test::AttackRound(benign, byz, 5, &rng).ctx);
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(out[0][j], -100.0f * byz.at(0, j));
}

TEST(LabelFlip, FlagsDataPoisoningAndForwards) {
  LabelFlipAttack attack;
  EXPECT_TRUE(attack.flips_labels());
  Rng rng(16);
  const auto benign = gaussian_matrix(4, 8, 0.0, 1.0, 17);
  const auto byz = gaussian_matrix(2, 8, 0.0, 1.0, 18);
  const auto out = attack.craft(test::AttackRound(benign, byz, 6, &rng).ctx);
  EXPECT_TRUE(std::ranges::equal(out[0], byz.row(0)));
}

TEST(Lie, CraftMatchesEquationOne) {
  const auto benign = gaussian_matrix(10, 32, 0.2, 0.8, 19);
  const double z = 0.3;
  const auto gm = LieAttack::craft_vector(benign.row_views(), z);
  const auto moments = vec::coordinate_moments(benign);
  for (std::size_t j = 0; j < gm.size(); ++j)
    EXPECT_NEAR(gm[j], moments.mean[j] - z * moments.stddev[j], 1e-5);
}

TEST(Lie, AllByzantineSendSameVector) {
  Rng rng(20);
  const auto benign = gaussian_matrix(8, 16, 0.0, 1.0, 21);
  const auto byz = gaussian_matrix(3, 16, 0.0, 1.0, 22);
  LieAttack attack(0.3);
  const auto out = attack.craft(test::AttackRound(benign, byz, 11, &rng).ctx);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(out[1], out[2]);
}

TEST(Lie, ZMaxMatchesCumulativeNormalRule) {
  // n=50, m=10: s = (50 - 26) / 40 = 0.6; Phi^-1(0.6) ~ 0.2533.
  const double z = LieAttack::z_max(50, 10);
  EXPECT_NEAR(z, 0.2533, 1e-3);
  // Verify the defining property: Phi(z) == s at the supremum.
  EXPECT_NEAR(standard_normal_cdf(z), 0.6, 1e-6);
}

TEST(Lie, ZMaxGrowsWithByzantineFraction) {
  // More Byzantine clients -> attacker can push harder (larger z).
  EXPECT_LT(LieAttack::z_max(50, 5), LieAttack::z_max(50, 15));
  EXPECT_LT(LieAttack::z_max(50, 15), LieAttack::z_max(50, 24));
}

TEST(Lie, NonPositiveZUsesZMax) {
  Rng rng(23);
  const auto benign = gaussian_matrix(40, 16, 0.0, 1.0, 24);
  const auto byz = gaussian_matrix(10, 16, 0.0, 1.0, 25);
  LieAttack attack(0.0);  // auto
  const auto out = attack.craft(test::AttackRound(benign, byz, 50, &rng).ctx);
  const auto expected =
      LieAttack::craft_vector(benign.row_views(), LieAttack::z_max(50, 10));
  for (std::size_t j = 0; j < expected.size(); ++j)
    EXPECT_NEAR(out[0][j], expected[j], 1e-6);
}

TEST(StandardNormalCdf, KnownValues) {
  EXPECT_NEAR(standard_normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(standard_normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(standard_normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(ByzMean, MeanOfAllGradientsEqualsGm1) {
  Rng rng(26);
  const auto benign = gaussian_matrix(8, 64, 0.1, 1.0, 27);
  const auto byz = gaussian_matrix(2, 64, 0.1, 1.0, 28);
  ByzMeanAttack attack;
  const std::size_t n = 10, m = 2;
  const auto out = attack.craft(test::AttackRound(benign, byz, n, &rng).ctx);
  ASSERT_EQ(out.size(), m);
  // Assemble the full gradient population and check Eq. (8)'s identity.
  const auto crafted = GradientMatrix::from_vectors(out);
  auto all = crafted.row_views();
  const auto benign_rows = benign.row_views();
  all.insert(all.end(), benign_rows.begin(), benign_rows.end());
  const auto mean = vec::mean_of(all);
  const auto& gm1 = out[0];
  for (std::size_t j = 0; j < mean.size(); ++j)
    EXPECT_NEAR(mean[j], gm1[j], 1e-3);
}

TEST(ByzMean, SplitsGroupsEvenly) {
  Rng rng(29);
  const auto benign = gaussian_matrix(40, 16, 0.0, 1.0, 30);
  const auto byz = gaussian_matrix(10, 16, 0.0, 1.0, 31);
  ByzMeanAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 50, &rng).ctx);
  ASSERT_EQ(out.size(), 10u);
  // m1 = 5 copies of g_m1, then 5 copies of g_m2.
  for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(out[i], out[0]);
  for (std::size_t i = 6; i < 10; ++i) EXPECT_EQ(out[i], out[5]);
  EXPECT_NE(out[0], out[5]);
}

TEST(ByzMean, SingleByzantineClientStillWellDefined) {
  Rng rng(32);
  const auto benign = gaussian_matrix(8, 8, 0.0, 1.0, 33);
  const auto byz = gaussian_matrix(1, 8, 0.0, 1.0, 34);
  ByzMeanAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 9, &rng).ctx);
  EXPECT_EQ(out.size(), 1u);
}

TEST(MinMax, SatisfiesCliqueConstraint) {
  Rng rng(35);
  const auto benign = gaussian_matrix(12, 64, 0.1, 1.0, 36);
  const auto byz = gaussian_matrix(3, 64, 0.1, 1.0, 37);
  MinMaxAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 15, &rng).ctx);
  const auto& gm = out[0];
  double max_to_benign = 0.0, max_pair = 0.0;
  for (std::size_t i = 0; i < benign.rows(); ++i) {
    max_to_benign = std::max(max_to_benign, vec::dist2(gm, benign.row(i)));
    for (std::size_t j = i + 1; j < benign.rows(); ++j)
      max_pair = std::max(max_pair, vec::dist2(benign.row(i), benign.row(j)));
  }
  EXPECT_LE(max_to_benign, max_pair * (1.0 + 1e-6));
  EXPECT_GT(attack.last_gamma(), 0.0);
}

TEST(MinSum, SatisfiesSumConstraint) {
  Rng rng(38);
  const auto benign = gaussian_matrix(12, 64, 0.1, 1.0, 39);
  const auto byz = gaussian_matrix(3, 64, 0.1, 1.0, 40);
  MinSumAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 15, &rng).ctx);
  const auto& gm = out[0];
  double sum_gm = 0.0, max_sum = 0.0;
  for (std::size_t i = 0; i < benign.rows(); ++i) {
    sum_gm += vec::dist2(gm, benign.row(i));
    double sum_i = 0.0;
    for (std::size_t j = 0; j < benign.rows(); ++j)
      sum_i += vec::dist2(benign.row(i), benign.row(j));
    max_sum = std::max(max_sum, sum_i);
  }
  EXPECT_LE(sum_gm, max_sum * (1.0 + 1e-6));
}

TEST(MinMax, GammaIsMaximal) {
  // Doubling gamma beyond the found maximum must violate the constraint
  // (gamma is a supremum up to bisection tolerance).
  Rng rng(41);
  const auto benign = gaussian_matrix(10, 32, 0.1, 1.0, 42);
  const auto byz = gaussian_matrix(2, 32, 0.1, 1.0, 43);
  MinMaxAttack attack;
  const auto out = attack.craft(test::AttackRound(benign, byz, 12, &rng).ctx);
  const double gamma = attack.last_gamma();
  ASSERT_GT(gamma, 0.0);
  if (gamma < 99.0) {  // not capped
    const auto avg = vec::mean_of(benign);
    const auto dp =
        make_perturbation(benign.row_views(), Perturbation::kInverseStd);
    auto gm_over = avg;
    vec::axpy(gamma * 1.2, dp, gm_over);
    double max_to_benign = 0.0, max_pair = 0.0;
    for (std::size_t i = 0; i < benign.rows(); ++i) {
      max_to_benign =
          std::max(max_to_benign, vec::dist2(gm_over, benign.row(i)));
      for (std::size_t j = i + 1; j < benign.rows(); ++j)
        max_pair = std::max(max_pair, vec::dist2(benign.row(i), benign.row(j)));
    }
    EXPECT_GT(max_to_benign, max_pair);
  }
}

TEST(Perturbations, AllVariantsHaveExpectedGeometry) {
  const auto benign = gaussian_matrix(10, 128, 0.5, 1.0, 44);
  const auto views = benign.row_views();
  const auto std_p = make_perturbation(views, Perturbation::kInverseStd);
  const auto moments = vec::coordinate_moments(benign);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(std_p[j], -moments.stddev[j], 1e-6);

  const auto unit_p = make_perturbation(views, Perturbation::kInverseUnit);
  EXPECT_NEAR(vec::norm(unit_p), 1.0, 1e-5);
  EXPECT_LT(vec::cosine(unit_p, vec::mean_of(benign)), -0.999);

  const auto sign_p = make_perturbation(views, Perturbation::kInverseSign);
  for (const float v : sign_p)
    EXPECT_TRUE(v == 1.0f || v == -1.0f || v == 0.0f);
}

TEST(MaxFeasibleGamma, BisectionFindsBoundary) {
  const double g =
      max_feasible_gamma([](double x) { return x <= 7.25; }, 100.0);
  EXPECT_NEAR(g, 7.25, 1e-6);
  const double capped =
      max_feasible_gamma([](double) { return true; }, 100.0);
  EXPECT_DOUBLE_EQ(capped, 100.0);
}

TEST(TimeVarying, SwitchesPerEpochDeterministically) {
  TimeVaryingAttack a(/*rounds_per_epoch=*/5, /*seed=*/77);
  TimeVaryingAttack b(/*rounds_per_epoch=*/5, /*seed=*/77);
  Rng rng(45);
  std::vector<std::string> names_a, names_b;
  for (std::size_t round = 0; round < 40; ++round) {
    a.begin_round(round, rng);
    b.begin_round(round, rng);
    names_a.push_back(a.current());
    names_b.push_back(b.current());
  }
  EXPECT_EQ(names_a, names_b);
  // Within an epoch the attack is constant.
  for (std::size_t r = 0; r < 40; ++r)
    EXPECT_EQ(names_a[r], names_a[(r / 5) * 5]);
  // Across 8 epochs at least two distinct attacks should appear.
  std::set<std::string> distinct(names_a.begin(), names_a.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(TimeVarying, EmptyPoolThrows) {
  std::vector<std::unique_ptr<Attack>> pool;
  EXPECT_THROW(TimeVaryingAttack(std::move(pool), /*rounds_per_epoch=*/5,
                                 /*seed=*/7),
               std::invalid_argument);
  std::vector<std::unique_ptr<Attack>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(TimeVaryingAttack(std::move(with_null), 5, 7),
               std::invalid_argument);
}

TEST(TimeVarying, QueriesBeforeBeginRoundThrow) {
  // Before the first begin_round no epoch has drawn a sub-attack; the
  // old behaviour silently acted as pool_[0].
  TimeVaryingAttack attack(/*rounds_per_epoch=*/5, /*seed=*/7);
  EXPECT_THROW(attack.flips_labels(), std::logic_error);
  EXPECT_THROW(attack.current(), std::logic_error);
  const auto benign = gaussian_matrix(4, 8, 0.0, 1.0, 47);
  const auto byz = gaussian_matrix(1, 8, 0.0, 1.0, 48);
  Rng rng(46);
  auto input = test::AttackRound(benign, byz, 5, &rng);
  EXPECT_THROW(attack.craft(input.ctx), std::logic_error);
  // After begin_round every query is defined.
  attack.begin_round(0, rng);
  EXPECT_NO_THROW(attack.flips_labels());
  EXPECT_FALSE(attack.current().empty());
  EXPECT_NO_THROW(attack.craft(input.ctx));
}

TEST(TimeVarying, CraftDelegatesToActiveAttack) {
  std::vector<std::unique_ptr<Attack>> pool;
  pool.push_back(std::make_unique<SignFlipAttack>());
  TimeVaryingAttack attack(std::move(pool), 1, 7);
  Rng rng(46);
  attack.begin_round(0, rng);
  EXPECT_EQ(attack.current(), "SignFlip");
  const auto benign = gaussian_matrix(4, 8, 0.0, 1.0, 47);
  const auto byz = gaussian_matrix(1, 8, 0.0, 1.0, 48);
  const auto out = attack.craft(test::AttackRound(benign, byz, 5, &rng).ctx);
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(out[0][j], -byz.at(0, j));
}

}  // namespace
}  // namespace signguard::attacks
