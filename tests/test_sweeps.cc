// Property sweeps (TEST_P): algebraic invariants every aggregation rule
// must satisfy across shapes — translation/scale equivariance, coordinate
// bounds, permutation invariance — plus attack-parameter sweeps (LIE's z,
// ByzMean's inner attack, Min-Max/Min-Sum perturbation modes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregators/baselines.h"
#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/minmax_minsum.h"
#include "attacks/simple_attacks.h"
#include "common/vecops.h"
#include "core/signguard.h"
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

using common::GradientMatrix;
using test::gaussian_matrix;

std::unique_ptr<agg::Aggregator> make_gar(const std::string& name) {
  using namespace agg;
  if (name == "Mean") return std::make_unique<MeanAggregator>();
  if (name == "TrMean") return std::make_unique<TrimmedMeanAggregator>();
  if (name == "Median") return std::make_unique<MedianAggregator>();
  if (name == "GeoMed") return std::make_unique<GeoMedAggregator>();
  if (name == "Multi-Krum") return std::make_unique<MultiKrumAggregator>();
  if (name == "Bulyan") return std::make_unique<BulyanAggregator>();
  if (name == "DnC") return std::make_unique<DnCAggregator>();
  return std::make_unique<core::SignGuard>(core::plain_config());
}

const std::vector<std::string>& all_gars() {
  static const std::vector<std::string> kGars = {
      "Mean",   "TrMean", "Median",    "GeoMed",
      "Multi-Krum", "Bulyan", "DnC",       "SignGuard"};
  return kGars;
}

// ---- shape robustness: every GAR on every degenerate population ------------

class ShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(ShapeSweep, FiniteOutputRightDimension) {
  const auto [name, n] = GetParam();
  for (const std::size_t d : {1u, 3u, 64u}) {
    const auto g = gaussian_matrix(n, d, 0.1, 1.0, 17 + n + d);
    Rng rng(3);
    agg::GarContext ctx;
    ctx.assumed_byzantine = n > 4 ? n / 5 : 0;
    ctx.rng = &rng;
    auto gar = make_gar(name);
    const auto out = gar->aggregate(g, ctx);
    ASSERT_EQ(out.size(), d) << name << " n=" << n << " d=" << d;
    for (const float v : out)
      ASSERT_TRUE(std::isfinite(v)) << name << " n=" << n << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GarsTimesPopulations, ShapeSweep,
    ::testing::Combine(::testing::ValuesIn(all_gars()),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{5}, std::size_t{20})),
    [](const auto& info) {
      auto name = std::get<0>(info.param) + "_n" +
                  std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---- equivariances for the coordinate-wise / geometric rules ---------------

class EquivarianceSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(EquivarianceSweep, TranslationEquivariant) {
  const auto name = GetParam();
  const auto g = gaussian_matrix(11, 16, 0.0, 1.0, 23);
  auto shifted = g;
  for (std::size_t i = 0; i < shifted.rows(); ++i)
    for (float& v : shifted.row(i)) v += 2.5f;
  Rng r1(5), r2(5);
  agg::GarContext c1, c2;
  c1.assumed_byzantine = c2.assumed_byzantine = 2;
  c1.rng = &r1;
  c2.rng = &r2;
  const auto base = make_gar(name)->aggregate(g, c1);
  const auto moved = make_gar(name)->aggregate(shifted, c2);
  for (std::size_t j = 0; j < 16; ++j)
    EXPECT_NEAR(moved[j], base[j] + 2.5f, 1e-3) << name;
}

TEST_P(EquivarianceSweep, PositiveScaleEquivariant) {
  const auto name = GetParam();
  const auto g = gaussian_matrix(11, 16, 0.3, 1.0, 29);
  auto scaled = g;
  for (std::size_t i = 0; i < scaled.rows(); ++i)
    vec::scale(scaled.row(i), 3.0);
  Rng r1(5), r2(5);
  agg::GarContext c1, c2;
  c1.assumed_byzantine = c2.assumed_byzantine = 2;
  c1.rng = &r1;
  c2.rng = &r2;
  const auto base = make_gar(name)->aggregate(g, c1);
  const auto big = make_gar(name)->aggregate(scaled, c2);
  for (std::size_t j = 0; j < 16; ++j)
    EXPECT_NEAR(big[j], 3.0f * base[j], 2e-3) << name;
}

// Krum/Bulyan/DnC also satisfy these but select stochastically under
// ties; the coordinate-wise and geometric rules must satisfy them exactly.
INSTANTIATE_TEST_SUITE_P(CoordinateRules, EquivarianceSweep,
                         ::testing::Values("Mean", "TrMean", "Median",
                                           "GeoMed"));

TEST(CoordinateBounds, RobustRulesStayInsideValueEnvelope) {
  // Coordinate-wise robust rules must output values within the
  // [min, max] envelope of the received values, per coordinate.
  const auto g = gaussian_matrix(9, 32, 0.0, 2.0, 31);
  for (const auto& name : {"TrMean", "Median"}) {
    Rng rng(6);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 2;
    ctx.rng = &rng;
    const auto out = make_gar(name)->aggregate(g, ctx);
    for (std::size_t j = 0; j < 32; ++j) {
      float lo = g.at(0, j), hi = g.at(0, j);
      for (std::size_t i = 0; i < g.rows(); ++i) {
        lo = std::min(lo, g.at(i, j));
        hi = std::max(hi, g.at(i, j));
      }
      EXPECT_GE(out[j], lo) << name;
      EXPECT_LE(out[j], hi) << name;
    }
  }
}

TEST(PermutationInvariance, CoordinateRulesIgnoreClientOrder) {
  const auto g = gaussian_matrix(12, 24, 0.1, 1.0, 37);
  auto views = g.row_views();
  std::reverse(views.begin(), views.end());
  const auto shuffled = GradientMatrix::from_views(views);
  for (const auto& name : {"Mean", "TrMean", "Median", "GeoMed"}) {
    agg::GarContext ctx;
    ctx.assumed_byzantine = 3;
    const auto a = make_gar(name)->aggregate(g, ctx);
    const auto b = make_gar(name)->aggregate(shuffled, ctx);
    for (std::size_t j = 0; j < 24; ++j) EXPECT_NEAR(a[j], b[j], 1e-5);
  }
}

// ---- SignGuard norm-clipping convexity --------------------------------------

TEST(ClippedMeanProperty, OutputNormNeverExceedsBound) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto g = gaussian_matrix(15, 64, 0.0, double(seed), seed);
    std::vector<std::size_t> sel(15);
    for (std::size_t i = 0; i < 15; ++i) sel[i] = i;
    const double bound = 0.7;
    const auto out = core::clipped_mean(g, sel, bound);
    EXPECT_LE(vec::norm(out), bound + 1e-6);
  }
}

// ---- attack-parameter sweeps -------------------------------------------------

TEST(LieSweep, StrongerZMeansFewerMaliciousKept) {
  const auto benign = gaussian_grads(40, 2048, 0.3, 0.8, 41);
  const auto benign_rows = GradientMatrix::from_vectors(benign);
  auto kept_at = [&](double z) {
    auto g = benign;
    const auto gm =
        attacks::LieAttack::craft_vector(benign_rows.row_views(), z);
    g.insert(g.end(), 10, gm);
    core::SignGuard sg(core::plain_config());
    sg.aggregate(GradientMatrix::from_vectors(g), agg::GarContext{});
    std::size_t kept = 0;
    for (const auto idx : sg.last_selected())
      if (idx >= 40) ++kept;
    return kept;
  };
  // A blatant LIE (large z) must never be kept MORE than a subtle one.
  EXPECT_LE(kept_at(2.0), kept_at(0.05));
  EXPECT_EQ(kept_at(2.0), 0u);
}

class ByzMeanInnerSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ByzMeanInnerSweep, MeanIdentityHoldsForEveryInnerAttack) {
  const auto inner_name = GetParam();
  std::unique_ptr<attacks::Attack> inner;
  if (inner_name == "Random")
    inner = std::make_unique<attacks::RandomAttack>(0.0, 0.5);
  else if (inner_name == "SignFlip")
    inner = std::make_unique<attacks::SignFlipAttack>();
  else
    inner = std::make_unique<attacks::LieAttack>(0.3);
  attacks::ByzMeanAttack attack(std::move(inner));

  Rng rng(45);
  const test::AttackRound in(gaussian_matrix(16, 64, 0.1, 1.0, 43),
                             gaussian_matrix(4, 64, 0.1, 1.0, 44), 20, &rng);
  const auto out = attack.craft(in.ctx);
  const auto crafted = GradientMatrix::from_vectors(out);
  auto all = crafted.row_views();
  all.insert(all.end(), in.benign_views.begin(), in.benign_views.end());
  const auto mean = vec::mean_of(all);
  for (std::size_t j = 0; j < 64; ++j)
    EXPECT_NEAR(mean[j], out[0][j], 1e-3) << inner_name;
}

INSTANTIATE_TEST_SUITE_P(InnerAttacks, ByzMeanInnerSweep,
                         ::testing::Values("Random", "SignFlip", "LIE"));

class PerturbationSweep
    : public ::testing::TestWithParam<attacks::Perturbation> {};

TEST_P(PerturbationSweep, MinMaxConstraintHoldsForEveryPerturbation) {
  const auto p = GetParam();
  Rng rng(49);
  const test::AttackRound in(gaussian_matrix(12, 128, 0.2, 1.0, 47),
                             gaussian_matrix(3, 128, 0.2, 1.0, 48), 15, &rng);
  attacks::MinMaxAttack attack(p);
  const auto out = attack.craft(in.ctx);
  const auto& benign = in.benign_views;
  double max_to_benign = 0.0, max_pair = 0.0;
  for (std::size_t i = 0; i < benign.size(); ++i) {
    max_to_benign = std::max(max_to_benign, vec::dist2(out[0], benign[i]));
    for (std::size_t j = i + 1; j < benign.size(); ++j)
      max_pair = std::max(max_pair, vec::dist2(benign[i], benign[j]));
  }
  EXPECT_LE(max_to_benign, max_pair * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    AllPerturbations, PerturbationSweep,
    ::testing::Values(attacks::Perturbation::kInverseStd,
                      attacks::Perturbation::kInverseUnit,
                      attacks::Perturbation::kInverseSign));

}  // namespace
}  // namespace signguard
