// Baseline GAR tests: exact behaviour on small hand-built inputs, then
// parameterized robustness sweeps — every robust rule must stay close to
// the benign mean when a minority of gradients is arbitrarily corrupted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregators/baselines.h"
#include "aggregators/signsgd.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "test_support.h"

namespace signguard::agg {
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
using test::matrix;

GarContext ctx_with(std::size_t m, Rng* rng = nullptr) {
  GarContext ctx;
  ctx.assumed_byzantine = m;
  ctx.rng = rng;
  return ctx;
}

TEST(Mean, ExactAverage) {
  const auto g = matrix({{1.0f, 2.0f}, {3.0f, 6.0f}});
  MeanAggregator mean;
  const auto out = mean.aggregate(g, ctx_with(0));
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(TrimmedMean, RemovesExtremesPerCoordinate) {
  const auto g = matrix({{100.0f}, {1.0f}, {2.0f}, {3.0f}, {-100.0f}});
  TrimmedMeanAggregator tm;
  const auto out = tm.aggregate(g, ctx_with(1));
  EXPECT_FLOAT_EQ(out[0], 2.0f);
}

TEST(TrimmedMean, ClampsOversizedTrim) {
  const auto g = matrix({{1.0f}, {2.0f}, {3.0f}});
  TrimmedMeanAggregator tm;
  const auto out = tm.aggregate(g, ctx_with(10));  // trim clamped to 1
  EXPECT_FLOAT_EQ(out[0], 2.0f);
}

TEST(Median, OddAndEvenCounts) {
  MedianAggregator med;
  const auto odd = matrix({{1.0f}, {9.0f}, {2.0f}});
  EXPECT_FLOAT_EQ(med.aggregate(odd, ctx_with(0))[0], 2.0f);
  const auto even = matrix({{1.0f}, {2.0f}, {3.0f}, {10.0f}});
  EXPECT_FLOAT_EQ(med.aggregate(even, ctx_with(0))[0], 2.5f);
}

TEST(Median, RobustToMinorityOutliers) {
  auto g = gaussian_grads(9, 32, 1.0, 0.1, 1);
  for (int i = 0; i < 4; ++i) g.push_back(std::vector<float>(32, 1e6f));
  MedianAggregator med;
  const auto out = med.aggregate(GradientMatrix::from_vectors(g), ctx_with(4));
  for (const float v : out) EXPECT_NEAR(v, 1.0f, 0.5f);
}

TEST(GeoMed, MatchesMedianOn1D) {
  // In 1-D the geometric median is the coordinate median.
  const auto g = matrix({{0.0f}, {1.0f}, {10.0f}});
  GeoMedAggregator gm;
  EXPECT_NEAR(gm.aggregate(g, ctx_with(0))[0], 1.0f, 1e-3);
}

TEST(GeoMed, MinimizesSumOfDistances) {
  const auto g = test::gaussian_matrix(15, 8, 0.0, 1.0, 2);
  GeoMedAggregator gm;
  const auto med = gm.aggregate(g, ctx_with(0));
  auto cost = [&](std::span<const float> x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < g.rows(); ++i) acc += vec::dist(g.row(i), x);
    return acc;
  };
  const double med_cost = cost(med);
  // The geometric median must beat the mean and every input point.
  EXPECT_LE(med_cost, cost(vec::mean_of(g)) + 1e-6);
  for (std::size_t i = 0; i < g.rows(); ++i)
    EXPECT_LE(med_cost, cost(g.row(i)) + 1e-6);
}

TEST(GeoMed, RobustToLargeOutliers) {
  auto g = gaussian_grads(12, 16, 2.0, 0.1, 3);
  for (int i = 0; i < 5; ++i) g.push_back(std::vector<float>(16, -1e5f));
  GeoMedAggregator gm;
  const auto out = gm.aggregate(GradientMatrix::from_vectors(g), ctx_with(5));
  for (const float v : out) EXPECT_NEAR(v, 2.0f, 0.5f);
}

TEST(MultiKrum, PicksBenignUnderBlatantOutliers) {
  auto g = gaussian_grads(8, 16, 0.5, 0.1, 4);
  g.push_back(std::vector<float>(16, 500.0f));
  g.push_back(std::vector<float>(16, -500.0f));
  MultiKrumAggregator krum;
  const auto out = krum.aggregate(GradientMatrix::from_vectors(g), ctx_with(2));
  for (const float v : out) EXPECT_NEAR(v, 0.5f, 0.3f);
  // Outlier indices 8 and 9 must not be selected.
  for (const auto idx : krum.last_selected()) EXPECT_LT(idx, 8u);
}

TEST(MultiKrum, SelectionSizeMatchesRule) {
  const auto g = test::gaussian_matrix(10, 8, 0.0, 1.0, 5);
  MultiKrumAggregator krum;
  krum.aggregate(g, ctx_with(2));
  // c = n - m - 2 = 6.
  EXPECT_EQ(krum.last_selected().size(), 6u);
}

TEST(MultiKrum, NoByzantineStillAverages) {
  const auto g = test::gaussian_matrix(6, 8, 1.0, 0.01, 6);
  MultiKrumAggregator krum;
  const auto out = krum.aggregate(g, ctx_with(0));
  for (const float v : out) EXPECT_NEAR(v, 1.0f, 0.1f);
}

TEST(Bulyan, SelectsThetaGradients) {
  const auto g = test::gaussian_matrix(14, 8, 0.0, 1.0, 7);
  BulyanAggregator bulyan;
  bulyan.aggregate(g, ctx_with(2));
  // theta = n - 2m = 10.
  EXPECT_EQ(bulyan.last_selected().size(), 10u);
}

TEST(Bulyan, RobustToCoordinateSpikes) {
  // Outlier hides a huge value in one coordinate; Bulyan's trimmed
  // coordinate step must suppress it.
  auto g = gaussian_grads(12, 8, 1.0, 0.05, 8);
  auto evil = g[0];
  evil[3] = 1e6f;
  g.push_back(evil);
  g.push_back(evil);
  BulyanAggregator bulyan;
  const auto out =
      bulyan.aggregate(GradientMatrix::from_vectors(g), ctx_with(2));
  EXPECT_NEAR(out[3], 1.0f, 0.5f);
}

TEST(DnC, FiltersCollinearOutliers) {
  Rng rng(9);
  auto g = gaussian_grads(16, 64, 0.0, 0.2, 10);
  // Malicious gradients displaced along a common direction: exactly the
  // signal DnC's top-singular-direction projection detects.
  std::vector<float> dir(64, 1.0f);
  for (int i = 0; i < 4; ++i) {
    auto evil = std::vector<float>(64, 0.0f);
    vec::axpy(5.0, dir, evil);
    g.push_back(evil);
  }
  DnCAggregator dnc;
  const auto out =
      dnc.aggregate(GradientMatrix::from_vectors(g), ctx_with(4, &rng));
  for (const float v : out) EXPECT_NEAR(v, 0.0f, 0.3f);
  // At most a benign minority may be removed; the mean of kept gradients
  // must exclude most of the planted outliers.
  std::size_t evil_kept = 0;
  for (const auto idx : dnc.last_selected())
    if (idx >= 16) ++evil_kept;
  EXPECT_LE(evil_kept, 1u);
}

TEST(DnC, KeepsEveryoneWhenNoByzantineAssumed) {
  Rng rng(11);
  const auto g = test::gaussian_matrix(8, 32, 0.0, 1.0, 12);
  DnCAggregator dnc;
  dnc.aggregate(g, ctx_with(0, &rng));
  EXPECT_EQ(dnc.last_selected().size(), 8u);
}

TEST(SignSgd, MajorityVotePerCoordinate) {
  const auto g =
      matrix({{1.0f, -3.0f, 0.0f}, {0.5f, -1.0f, 2.0f}, {-2.0f, 4.0f, 5.0f}});
  SignSgdMajorityAggregator sign_sgd(1.0);
  const auto out = sign_sgd.aggregate(g, GarContext{});
  EXPECT_FLOAT_EQ(out[0], 1.0f);   // votes +1 +1 -1 -> +
  EXPECT_FLOAT_EQ(out[1], -1.0f);  // votes -1 -1 +1 -> -
  EXPECT_FLOAT_EQ(out[2], 1.0f);   // votes 0 +1 +1 -> +
}

TEST(SignSgd, TieEmitsZeroAndStepScales) {
  const auto g = matrix({{1.0f}, {-1.0f}});
  SignSgdMajorityAggregator sign_sgd(0.25);
  EXPECT_FLOAT_EQ(sign_sgd.aggregate(g, GarContext{})[0], 0.0f);
  const auto g2 = matrix({{1.0f}, {2.0f}});
  EXPECT_FLOAT_EQ(sign_sgd.aggregate(g2, GarContext{})[0], 0.25f);
}

TEST(SignSgd, FaultTolerantToMagnitudeInflation) {
  // The property the paper cites from Bernstein et al.: magnitudes are
  // discarded, so a minority sending huge values cannot move the vote.
  auto g = gaussian_grads(9, 32, 0.5, 0.1, 77);
  for (int i = 0; i < 4; ++i) g.push_back(std::vector<float>(32, -1e9f));
  SignSgdMajorityAggregator sign_sgd(1.0);
  const auto out =
      sign_sgd.aggregate(GradientMatrix::from_vectors(g), GarContext{});
  for (const float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(SingleGradient, AllRulesReturnIt) {
  const auto g = matrix({{1.0f, -2.0f, 3.0f}});
  Rng rng(13);
  MeanAggregator mean;
  TrimmedMeanAggregator tm;
  MedianAggregator med;
  GeoMedAggregator geo;
  MultiKrumAggregator krum;
  BulyanAggregator bulyan;
  DnCAggregator dnc;
  for (Aggregator* a : std::initializer_list<Aggregator*>{
           &mean, &tm, &med, &geo, &krum, &bulyan, &dnc}) {
    const auto out = a->aggregate(g, ctx_with(0, &rng));
    for (std::size_t j = 0; j < g.cols(); ++j)
      EXPECT_NEAR(out[j], g.at(0, j), 1e-4) << a->name();
  }
}

// ---- Parameterized robustness sweep ----------------------------------------
// Every robust rule, told the true Byzantine count, must keep the
// aggregate near the benign mean under each corruption pattern.

struct RobustCase {
  std::string gar;
  std::string corruption;
};

class RobustnessSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  static std::unique_ptr<Aggregator> make(const std::string& name) {
    if (name == "TrMean") return std::make_unique<TrimmedMeanAggregator>();
    if (name == "Median") return std::make_unique<MedianAggregator>();
    if (name == "GeoMed") return std::make_unique<GeoMedAggregator>();
    if (name == "Multi-Krum") return std::make_unique<MultiKrumAggregator>();
    if (name == "Bulyan") return std::make_unique<BulyanAggregator>();
    return std::make_unique<DnCAggregator>();
  }

  static std::vector<std::vector<float>> corrupt(
      const std::string& kind, std::vector<std::vector<float>> g,
      std::size_t m, Rng& rng) {
    const std::size_t d = g.front().size();
    for (std::size_t i = 0; i < m; ++i) {
      if (kind == "huge") {
        g[i].assign(d, 1e4f);
      } else if (kind == "negated") {
        vec::scale(g[i], -50.0);
      } else if (kind == "random") {
        g[i] = rng.normal_vector(d, 0.0, 100.0);
      } else {  // zero
        g[i].assign(d, 0.0f);
      }
    }
    return g;
  }
};

TEST_P(RobustnessSweep, StaysNearBenignMean) {
  const auto [gar_name, corruption] = GetParam();
  Rng rng(99);
  const std::size_t n = 20, m = 4, d = 32;
  auto g = gaussian_grads(n, d, 1.0, 0.2, 100);
  const auto benign_mean = [&] {
    const std::vector<std::vector<float>> benign(g.begin() + m, g.end());
    return vec::mean_of(GradientMatrix::from_vectors(benign));
  }();
  g = corrupt(corruption, std::move(g), m, rng);
  auto gar = make(gar_name);
  const auto out =
      gar->aggregate(GradientMatrix::from_vectors(g), ctx_with(m, &rng));
  // The corrupted coordinates are displaced by >= 50; robust rules must
  // land within a small ball of the benign mean.
  EXPECT_LT(vec::dist(out, benign_mean), 2.0)
      << gar_name << " under " << corruption;
}

INSTANTIATE_TEST_SUITE_P(
    AllRulesAllCorruptions, RobustnessSweep,
    ::testing::Combine(::testing::Values("TrMean", "Median", "GeoMed",
                                         "Multi-Krum", "Bulyan", "DnC"),
                       ::testing::Values("huge", "negated", "random",
                                         "zero")),
    [](const auto& info) {
      auto name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace signguard::agg
