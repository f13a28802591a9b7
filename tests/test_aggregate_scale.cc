// Aggregation-at-scale suite: the Gram (GEMM-backed) vs direct pairwise
// backends, the packed-triangle PairwiseDistances and its neighbour
// lists, the column-panel coordinate statistics and Bulyan's window
// kernel, hostile non-finite rows, and the selection-based
// quantile/Krum-ranking satellites. Cross-backend comparisons are
// tolerance-based (float-GEMM vs double pair loops); everything within
// one backend — thread counts, packed vs dense, panel vs per-coordinate
// — must be bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "aggregators/baselines.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/rng.h"
#include "common/vecops.h"

namespace signguard {
namespace {

// Restores the ambient dist backend / thread count when a test exits.
struct BackendGuard {
  vec::DistBackend prev = vec::dist_backend();
  ~BackendGuard() {
    vec::set_dist_backend(prev);
    common::set_thread_count(0);
  }
};

common::GradientMatrix gaussian_matrix(std::size_t n, std::size_t d,
                                       double mean, double stddev,
                                       std::uint64_t seed) {
  Rng rng(seed);
  common::GradientMatrix m(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (auto& v : m.row(i)) v = static_cast<float>(rng.normal(mean, stddev));
  return m;
}

// Adversarial fixture: benign cluster, a near-duplicate pair (Gram
// cancellation stress), huge-norm ByzMean-style outliers, and zero rows.
common::GradientMatrix adversarial_matrix(std::size_t d,
                                          std::uint64_t seed) {
  auto m = gaussian_matrix(10, d, 0.1, 1.0, seed);
  // Rows 1 = row 0 + tiny delta: dist2 ~ 1e-8 * d vs norms ~ d.
  for (std::size_t j = 0; j < d; ++j)
    m.at(1, j) = m.at(0, j) + (j % 2 == 0 ? 1e-4f : -1e-4f);
  // Huge-norm colluders.
  for (auto& v : m.row(2)) v = 1e4f;
  for (auto& v : m.row(3)) v = -1e4f;
  // Zero rows (dropped-out clients / crafted zeros).
  for (auto& v : m.row(4)) v = 0.0f;
  for (auto& v : m.row(5)) v = 0.0f;
  return m;
}

// ---- Gram vs direct --------------------------------------------------------

TEST(DistBackends, AgreeWithinToleranceOnAdversarialInputs) {
  BackendGuard guard;
  const auto m = adversarial_matrix(257, 21);
  const std::size_t n = m.rows();

  vec::set_dist_backend(vec::DistBackend::kDirect);
  const auto d2_direct = vec::pairwise_dist2(m);
  const auto dot_direct = vec::pairwise_dot(m);
  vec::set_dist_backend(vec::DistBackend::kGram);
  const auto d2_gram = vec::pairwise_dist2(m);
  const auto dot_gram = vec::pairwise_dot(m);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Relative tolerance scaled by the row norms: the Gram identity
      // loses up to ~norm^2 * 1e-7 to float rounding/cancellation.
      const double scale =
          std::max({1.0, dot_direct[i * n + i], dot_direct[j * n + j]});
      EXPECT_NEAR(d2_gram[i * n + j], d2_direct[i * n + j], 1e-5 * scale)
          << "d2 (" << i << ", " << j << ")";
      EXPECT_NEAR(dot_gram[i * n + j], dot_direct[i * n + j], 1e-5 * scale)
          << "dot (" << i << ", " << j << ")";
      EXPECT_GE(d2_gram[i * n + j], 0.0) << "clamped at zero";
    }
  }
  // Zero rows: every quantity involving them is exact in both backends.
  EXPECT_EQ(d2_gram[4 * n + 5], 0.0);
  EXPECT_EQ(dot_gram[4 * n + 4], 0.0);
}

TEST(DistBackends, EachBackendIsThreadCountInvariant) {
  BackendGuard guard;
  const auto m = adversarial_matrix(193, 22);
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    common::set_thread_count(1);
    const auto d2_t1 = vec::pairwise_dist2(m);
    const auto dot_t1 = vec::pairwise_dot(m);
    const auto packed_t1 = vec::pairwise_dist2_packed(m);
    common::set_thread_count(4);
    const auto d2_t4 = vec::pairwise_dist2(m);
    const auto dot_t4 = vec::pairwise_dot(m);
    const auto packed_t4 = vec::pairwise_dist2_packed(m);
    EXPECT_EQ(d2_t1, d2_t4);
    EXPECT_EQ(dot_t1, dot_t4);
    EXPECT_EQ(packed_t1, packed_t4);
  }
}

TEST(DistBackends, PackedTriangleMatchesDenseBitwise) {
  BackendGuard guard;
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    const auto m = adversarial_matrix(129, 23);
    const std::size_t n = m.rows();
    const auto dense = vec::pairwise_dist2(m);
    const PairwiseDistances pd(m);
    ASSERT_EQ(pd.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(pd.dist2(i, j), dense[i * n + j]) << i << " " << j;
  }
}

// ---- column panels vs the seed per-coordinate scan -------------------------

// The pre-panel Median: per coordinate, gather the column then
// nth_element — the bitwise oracle.
std::vector<float> seed_median(const common::GradientMatrix& g) {
  const std::size_t n = g.rows(), d = g.cols();
  std::vector<float> out(d);
  const std::size_t mid = n / 2;
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = g.at(i, j);
    std::nth_element(column.begin(), column.begin() + std::ptrdiff_t(mid),
                     column.end());
    if (n % 2 == 1) {
      out[j] = column[mid];
    } else {
      const float lo = *std::max_element(
          column.begin(), column.begin() + std::ptrdiff_t(mid));
      out[j] = 0.5f * (lo + column[mid]);
    }
  }
  return out;
}

// The pre-panel TrimmedMean: full sort, ascending accumulation.
std::vector<float> seed_trimmed_mean(const common::GradientMatrix& g,
                                     std::size_t trim) {
  const std::size_t n = g.rows(), d = g.cols();
  std::vector<float> out(d);
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = g.at(i, j);
    std::sort(column.begin(), column.end());
    double acc = 0.0;
    for (std::size_t i = trim; i < n - trim; ++i) acc += column[i];
    out[j] = static_cast<float>(acc / double(n - 2 * trim));
  }
  return out;
}

TEST(ColumnPanels, MedianMatchesSeedBitwise) {
  agg::GarContext ctx;
  agg::MedianAggregator median;
  for (const std::size_t n : {5ul, 8ul, 33ul}) {
    // d = 130 spans two 64-wide panels plus a partial tile; duplicated
    // values exercise nth_element tie handling.
    auto m = gaussian_matrix(n, 130, 0.0, 1.0, 31 + n);
    for (std::size_t i = 0; i + 1 < n; i += 2) m.at(i, 7) = m.at(i + 1, 7);
    const auto expected = seed_median(m);
    const auto got = median.aggregate(m, ctx);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < got.size(); ++j)
      EXPECT_EQ(got[j], expected[j]) << "n=" << n << " j=" << j;
  }
}

TEST(ColumnPanels, TrimmedMeanMatchesSeedBitwise) {
  agg::MedianAggregator median;
  for (const std::size_t n : {5ul, 9ul, 24ul}) {
    for (const std::size_t trim : {0ul, 1ul, 3ul}) {
      if (n <= 2 * trim) continue;
      agg::GarContext ctx;
      ctx.assumed_byzantine = trim;
      agg::TrimmedMeanAggregator tm;
      const auto m = gaussian_matrix(n, 130, 0.5, 2.0, 41 + n + trim);
      const auto expected = seed_trimmed_mean(m, trim);
      const auto got = tm.aggregate(m, ctx);
      for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], expected[j])
            << "n=" << n << " trim=" << trim << " j=" << j;
    }
  }
}

TEST(ColumnPanels, SweepIsThreadCountInvariant) {
  BackendGuard guard;
  agg::GarContext ctx;
  ctx.assumed_byzantine = 3;
  agg::MedianAggregator median;
  agg::TrimmedMeanAggregator tm;
  const auto m = gaussian_matrix(17, 300, 0.0, 1.0, 51);
  common::set_thread_count(1);
  const auto med_t1 = median.aggregate(m, ctx);
  const auto tm_t1 = tm.aggregate(m, ctx);
  common::set_thread_count(4);
  EXPECT_EQ(median.aggregate(m, ctx), med_t1);
  EXPECT_EQ(tm.aggregate(m, ctx), tm_t1);
}

// ---- Bulyan coordinate kernel vs the scalar oracle -------------------------

// The pre-panel mean_around_median: copy, median, comparator sort of the
// copy by |x - med|, sum of the first k — the bitwise oracle wherever no
// two values share a distance.
double seed_mean_around_median(std::span<const double> xs, std::size_t k) {
  const double med = stats::median(xs);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end(), [med](double a, double b) {
    return std::abs(a - med) < std::abs(b - med);
  });
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += v[i];
  return acc / double(k);
}

// The documented tie rule, spelled out: order by (|x - med|, x) with a
// stable sort, sum the first k in that order.
double tie_rule_mean_around_median(std::span<const float> xs,
                                   std::size_t k) {
  std::vector<double> v(xs.begin(), xs.end());
  const double med = stats::median(v);
  std::stable_sort(v.begin(), v.end(), [med](double a, double b) {
    const double da = std::abs(a - med), db = std::abs(b - med);
    return da < db || (da == db && a < b);
  });
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += v[i];
  return acc / double(k);
}

// The scalar oracle: the per-coordinate kernel Bulyan ran before the
// column-batched network. NaNs are partitioned last and the numbers
// sorted with std::sort; the median is that of the numbers, and the
// outward merge adds the k values in ascending |x - med|, the lower value
// first on equal distance. Fewer than k numbers gives NaN.
double scalar_mean_around_median(std::vector<float> xs, std::size_t k) {
  const auto numbers_end = std::partition(
      xs.begin(), xs.end(), [](float x) { return !std::isnan(x); });
  const std::size_t c = std::size_t(numbers_end - xs.begin());
  if (k > c) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), numbers_end);
  const std::size_t mid = c / 2;
  const double med = c % 2 == 1
                         ? double(xs[mid])
                         : 0.5 * (double(xs[mid - 1]) + double(xs[mid]));
  const auto dist = [med](float x) { return std::abs(double(x) - med); };
  std::size_t lo = mid, hi = mid;
  double acc = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    const bool left = hi == c || (lo > 0 && dist(xs[lo - 1]) <= dist(xs[hi]));
    acc += left ? double(xs[--lo]) : double(xs[hi++]);
  }
  return acc / double(k);
}

// The column kernel on a single column (one lane of a tail tile).
float kernel(const std::vector<float>& column, std::size_t k) {
  common::GradientMatrix m(column.size(), 1);
  for (std::size_t i = 0; i < column.size(); ++i) m.at(i, 0) = column[i];
  std::vector<std::size_t> rows(column.size());
  std::iota(rows.begin(), rows.end(), 0);
  return vec::mean_around_median_columns(m, rows, k)[0];
}

std::vector<std::size_t> window_sizes(std::size_t n) {
  return {1, std::max<std::size_t>(1, n / 3), n};
}

TEST(CoordinateKernel, MatchesSeedBitwiseOnTieFreeColumns) {
  Rng rng(111);
  for (const std::size_t n : {5ul, 8ul, 33ul, 60ul, 61ul}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<float> column(n);
      for (auto& x : column) x = static_cast<float>(rng.normal(0.1, 1.0));
      std::vector<float> sorted(column);
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
      const std::vector<double> wide(column.begin(), column.end());
      for (const std::size_t beta : window_sizes(n)) {
        // At even n the two middle values are always equidistant from
        // their average. With beta >= 2 both are summed first, where
        // their order cannot change the sum; at beta == 1 the seed kept
        // whichever its sort left first, so only the tie rule decides.
        const double expected =
            n % 2 == 0 && beta == 1
                ? tie_rule_mean_around_median(column, beta)
                : seed_mean_around_median(wide, beta);
        EXPECT_EQ(kernel(column, beta), static_cast<float>(expected))
            << "n=" << n << " beta=" << beta << " trial=" << trial;
      }
    }
  }
}

// int8-style grid columns: a handful of levels times one scale, plus
// duplicated rows, so equal distances (both equal values and mirror
// pairs around the median) are everywhere.
std::vector<float> grid_column(std::size_t n, Rng& rng) {
  const float scale = static_cast<float>(rng.uniform(0.001, 0.1));
  std::vector<float> column(n);
  for (auto& x : column) x = scale * float(rng.randint(-6, 6));
  for (std::size_t i = 0; i + 3 < n; i += 4) column[i + 1] = column[i];
  return column;
}

TEST(CoordinateKernel, TieHeavyColumnsFollowTheTieRule) {
  Rng rng(112);
  for (const std::size_t n : {5ul, 8ul, 33ul, 60ul, 61ul}) {
    for (int trial = 0; trial < 200; ++trial) {
      const auto column = grid_column(n, rng);
      for (const std::size_t beta : window_sizes(n))
        EXPECT_EQ(kernel(column, beta),
                  static_cast<float>(
                      tie_rule_mean_around_median(column, beta)))
            << "n=" << n << " beta=" << beta << " trial=" << trial;
    }
  }
}

TEST(CoordinateKernel, ResultIgnoresRowOrder) {
  Rng rng(113);
  for (const std::size_t n : {8ul, 60ul, 61ul}) {
    for (int trial = 0; trial < 50; ++trial) {
      auto column = grid_column(n, rng);
      std::vector<float> expected;
      for (const std::size_t beta : window_sizes(n))
        expected.push_back(kernel(column, beta));
      std::vector<std::size_t> perm(n);
      for (int shuffle = 0; shuffle < 5; ++shuffle) {
        std::iota(perm.begin(), perm.end(), 0);
        rng.shuffle(perm);
        std::vector<float> permuted(n);
        for (std::size_t i = 0; i < n; ++i) permuted[i] = column[perm[i]];
        std::size_t w = 0;
        for (const std::size_t beta : window_sizes(n))
          EXPECT_EQ(kernel(permuted, beta), expected[w++])
              << "n=" << n << " beta=" << beta;
      }
    }
  }
}

TEST(CoordinateKernel, NaNIsNeverNearerTheMedianThanANumber) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> column = {nan, 3.0f, 1.0f, nan, 2.0f};
  // Median of the numbers {1, 2, 3} is 2; the NaNs rank last.
  EXPECT_EQ(kernel(column, 1), 2.0f);
  EXPECT_EQ(kernel(column, 3), 2.0f);
  EXPECT_TRUE(std::isnan(kernel(column, 4)));
  EXPECT_TRUE(std::isnan(kernel({nan, nan}, 1)));
}

// Differential fixture for the column kernel: an n x d matrix whose
// column j is drawn from `regime`, with d chosen so every tile width
// leaves a partial tail tile.
//   0: gaussian; 1: tie-heavy grid columns; 2: signed zeros among a few
//   grid levels; 3: ±inf everywhere, and NaN in some lanes only — lane j
//   carries (j mod 4) * n / 3 NaNs, so some lanes have fewer than k
//   numbers for the larger windows.
common::GradientMatrix kernel_fixture(std::size_t n, std::size_t d,
                                      int regime, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  common::GradientMatrix m(n, d);
  for (std::size_t j = 0; j < d; ++j) {
    std::vector<float> column(n);
    switch (regime) {
      case 0:
        for (auto& x : column) x = static_cast<float>(rng.normal(0.1, 1.0));
        break;
      case 1:
        column = grid_column(n, rng);
        break;
      case 2:
        for (auto& x : column) {
          const int level = rng.randint(-2, 2);
          x = level == 0 ? (rng.bernoulli(0.5) ? -0.0f : 0.0f)
                         : 0.25f * float(level);
        }
        break;
      default: {
        for (auto& x : column) {
          const double u = rng.uniform();
          x = u < 0.1 ? inf : u < 0.2 ? -inf : float(rng.normal());
        }
        const std::size_t nans = (j % 4) * n / 3;
        for (std::size_t i = 0; i < nans; ++i) column[i] = nan;
        break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) m.at(i, j) = column[i];
  }
  return m;
}

// Bitwise equality with NaN equal to NaN (both sides produce quiet NaN).
bool same_float(float a, float b) {
  return std::isnan(a) ? std::isnan(b)
                       : std::bit_cast<std::uint32_t>(a) ==
                             std::bit_cast<std::uint32_t>(b);
}

TEST(CoordinateKernel, MatchesScalarOracleBitwise) {
  Rng rng(114);
  // 300 and 600: merge-exchange networks of non-power-of-two sizes well
  // past the round's theta, on panels larger than L1.
  for (const std::size_t n : {1ul, 2ul, 3ul, 5ul, 8ul, 33ul, 60ul, 61ul,
                              64ul, 65ul, 129ul, 256ul, 300ul, 600ul}) {
    const std::size_t d = 37;  // 2 full 16-lane tiles + a 5-lane tail
    for (int regime = 0; regime < 4; ++regime) {
      const auto m = kernel_fixture(n, d, regime, rng);
      // All rows, and a shuffled subset of rows as Bulyan passes them.
      std::vector<std::size_t> all(n);
      std::iota(all.begin(), all.end(), 0);
      std::vector<std::size_t> subset = all;
      rng.shuffle(subset);
      subset.resize(std::max<std::size_t>(1, n - n / 4));
      for (const bool use_subset : {false, true}) {
        const std::vector<std::size_t>& rows = use_subset ? subset : all;
        for (const std::size_t beta : window_sizes(rows.size())) {
          const auto got = vec::mean_around_median_columns(m, rows, beta);
          ASSERT_EQ(got.size(), d);
          for (std::size_t j = 0; j < d; ++j) {
            std::vector<float> column(rows.size());
            for (std::size_t r = 0; r < rows.size(); ++r)
              column[r] = m.at(rows[r], j);
            const auto expected = static_cast<float>(
                scalar_mean_around_median(column, beta));
            ASSERT_TRUE(same_float(got[j], expected))
                << "n=" << n << " regime=" << regime
                << " subset=" << use_subset << " beta=" << beta
                << " j=" << j << ": " << got[j] << " vs " << expected;
          }
        }
      }
    }
  }
}

TEST(CoordinateKernel, ThreadCountInvariant) {
  BackendGuard guard;
  Rng rng(115);
  for (int regime = 0; regime < 4; ++regime) {
    const auto m = kernel_fixture(60, 1001, regime, rng);
    std::vector<std::size_t> rows(40);
    std::iota(rows.begin(), rows.end(), 10);
    common::set_thread_count(1);
    const auto t1 = vec::mean_around_median_columns(m, rows, 12);
    common::set_thread_count(4);
    const auto t4 = vec::mean_around_median_columns(m, rows, 12);
    ASSERT_EQ(t1.size(), t4.size());
    for (std::size_t j = 0; j < t1.size(); ++j)
      ASSERT_TRUE(same_float(t1[j], t4[j])) << "regime=" << regime
                                            << " j=" << j;
  }
}

// ---- Krum ranking / Bulyan mask satellites ---------------------------------

// The pre-neighbour-list Krum score: gather the remaining distances of
// row i in ascending j, partial_sort the k smallest and add them in
// ascending order.
double seed_krum_score(const PairwiseDistances& pd, std::size_t i,
                       std::size_t k, std::span<const char> excluded = {}) {
  std::vector<double> row;
  for (std::size_t j = 0; j < pd.size(); ++j)
    if (j != i && (excluded.empty() || !excluded[j]))
      row.push_back(pd.dist2(i, j));
  const std::size_t kk = std::min(k, row.size());
  std::partial_sort(row.begin(), row.begin() + std::ptrdiff_t(kk),
                    row.end());
  double score = 0.0;
  for (std::size_t t = 0; t < kk; ++t) score += row[t];
  return score;
}

TEST(NeighbourLists, ScoresMatchGatherPlusPartialSortBitwise) {
  BackendGuard guard;
  Rng rng(121);
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    // Zero rows 4 and 5 tie at distance 0; the huge-norm rows put ties
    // and extreme values at both ends of every list.
    const PairwiseDistances pd(adversarial_matrix(96, 122));
    const std::size_t n = pd.size();
    std::vector<char> excluded(n, 0);
    for (int trial = 0; trial < 20; ++trial) {
      if (trial > 0)
        for (auto& e : excluded) e = rng.bernoulli(0.3) ? 1 : 0;
      for (std::size_t i = 0; i < n; ++i)
        for (const std::size_t k : {1ul, 3ul, n})
          EXPECT_EQ(pd.krum_score(i, k, excluded),
                    seed_krum_score(pd, i, k, excluded))
              << "i=" << i << " k=" << k << " trial=" << trial;
    }
  }
}

TEST(KrumRanking, PartialSortSelectionMatchesFullSortOracle) {
  BackendGuard guard;
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    const auto m = gaussian_matrix(20, 64, 0.0, 1.0, 61);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 4;
    agg::MultiKrumAggregator krum;
    krum.aggregate(m, ctx);
    const auto selected = krum.last_selected();

    // Oracle: recompute the scores the seed way, then rank with a FULL
    // sort under the same score-then-index ordering.
    const std::size_t n = m.rows();
    const std::size_t mm = std::min(ctx.assumed_byzantine, (n - 1) / 2);
    const std::size_t k = std::max<std::size_t>(1, n - mm - 2);
    const PairwiseDistances pd(m);
    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) scores[i] = seed_krum_score(pd, i, k);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return scores[a] < scores[b] ||
                       (scores[a] == scores[b] && a < b);
              });
    const std::vector<std::size_t> expected(
        order.begin(), order.begin() + std::ptrdiff_t(std::min(k, n)));
    EXPECT_EQ(selected, expected);
  }
}

// The seed's erase-based iterative-Krum loop over the same
// PairwiseDistances: the bitwise reference for Bulyan's phase 1.
std::vector<std::size_t> erase_loop_selection(const PairwiseDistances& pd,
                                              std::size_t assumed) {
  const std::size_t n = pd.size();
  const std::size_t mm = std::min(assumed, (n - 1) / 2);
  const std::size_t theta = std::max<std::size_t>(1, n - 2 * mm);
  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::size_t> expected;
  std::vector<double> row;
  while (expected.size() < theta && !remaining.empty()) {
    const std::size_t r = remaining.size();
    const std::size_t k =
        std::max<std::size_t>(1, r > mm + 2 ? r - mm - 2 : 1);
    double best_score = std::numeric_limits<double>::max();
    std::size_t best_pos = 0;
    for (std::size_t a = 0; a < r; ++a) {
      row.clear();
      for (std::size_t b = 0; b < r; ++b)
        if (b != a) row.push_back(pd.dist2(remaining[a], remaining[b]));
      const std::size_t kk = std::min(k, row.size());
      std::partial_sort(row.begin(), row.begin() + std::ptrdiff_t(kk),
                        row.end());
      double score = 0.0;
      for (std::size_t t = 0; t < kk; ++t) score += row[t];
      if (score < best_score) {
        best_score = score;
        best_pos = a;
      }
    }
    expected.push_back(remaining[best_pos]);
    remaining.erase(remaining.begin() + std::ptrdiff_t(best_pos));
  }
  return expected;
}

TEST(BulyanMask, ExcludeMaskSelectionMatchesEraseLoopBitwise) {
  BackendGuard guard;
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    auto m = gaussian_matrix(14, 48, 1.0, 0.3, 71);
    for (auto& v : m.row(0)) v = 50.0f;  // one blatant outlier
    agg::GarContext ctx;
    ctx.assumed_byzantine = 2;
    agg::BulyanAggregator bulyan;
    const auto out = bulyan.aggregate(m, ctx);
    const auto selected = bulyan.last_selected();
    EXPECT_EQ(selected, erase_loop_selection(PairwiseDistances(m), 2));
    EXPECT_EQ(out.size(), m.cols());
    // The outlier row must not survive phase 1.
    EXPECT_EQ(std::count(selected.begin(), selected.end(), 0u), 0);
  }
}

TEST(BulyanMask, BenchShapeSelectionMatchesEraseLoopAcrossThreads) {
  BackendGuard guard;
  // The round benchmark's Bulyan shape: n = 100, m = 20, and 20 identical
  // MinMax-style crafted rows, whose zero mutual distances tie scores.
  auto m = gaussian_matrix(100, 300, 0.05, 0.5, 131);
  for (std::size_t i = 80; i < 100; ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m.at(i, j) = 0.05f + (j % 3 == 0 ? 0.4f : -0.2f);
  agg::GarContext ctx;
  ctx.assumed_byzantine = 20;
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    common::set_thread_count(1);
    const auto expected = erase_loop_selection(PairwiseDistances(m), 20);
    ASSERT_EQ(expected.size(), 60u);
    for (const std::size_t threads : {1ul, 4ul}) {
      common::set_thread_count(threads);
      agg::BulyanAggregator bulyan;
      bulyan.aggregate(m, ctx);
      EXPECT_EQ(bulyan.last_selected(), expected)
          << "backend=" << int(backend) << " threads=" << threads;
    }
  }
}

// ---- hostile rows ----------------------------------------------------------

TEST(HostileRows, NonFiniteRowsNeverTakeOverDistanceRules) {
  BackendGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  struct Case {
    const char* name;
    std::vector<std::pair<std::size_t, float>> bad;  // (row, value)
  };
  const std::vector<Case> cases = {
      {"one NaN in row 0", {{0, nan}}},
      {"+inf in row 0", {{0, inf}}},
      {"NaN row 0 and -inf row 7", {{0, nan}, {7, -inf}}},
  };
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;  // covers every case's bad rows
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    for (const auto& c : cases) {
      auto m = gaussian_matrix(10, 40, 0.2, 1.0, 141);
      for (const auto& [row, value] : c.bad) m.at(row, 3) = value;
      agg::BulyanAggregator bulyan;
      agg::MultiKrumAggregator krum;
      for (agg::Aggregator* gar :
           std::initializer_list<agg::Aggregator*>{&bulyan, &krum}) {
        const auto out = gar->aggregate(m, ctx);
        const auto selected = gar->last_selected();
        EXPECT_FALSE(selected.empty());
        for (const auto idx : selected) {
          EXPECT_LT(idx, m.rows()) << gar->name() << ": " << c.name;
          for (const auto& bad : c.bad)
            EXPECT_NE(idx, bad.first) << gar->name() << ": " << c.name;
        }
        for (const float v : out)
          ASSERT_TRUE(std::isfinite(v)) << gar->name() << ": " << c.name;
      }
    }
  }
}

TEST(HostileRows, AllNaNRowsStillSelectInRangeIndices) {
  BackendGuard guard;
  common::GradientMatrix m(10, 16);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (auto& v : m.row(i)) v = std::numeric_limits<float>::quiet_NaN();
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    agg::BulyanAggregator bulyan;
    agg::MultiKrumAggregator krum;
    for (agg::Aggregator* gar :
         std::initializer_list<agg::Aggregator*>{&bulyan, &krum}) {
      gar->aggregate(m, ctx);
      const auto selected = gar->last_selected();
      EXPECT_EQ(selected.size(), 6u) << gar->name();
      // Every score is +inf: ties go to the lower index.
      for (std::size_t t = 0; t < selected.size(); ++t)
        EXPECT_EQ(selected[t], t) << gar->name();
    }
  }
}

// ---- aggregate-level backend behaviour -------------------------------------

TEST(GramAggregation, KrumAndBulyanAreThreadCountInvariantPerBackend) {
  BackendGuard guard;
  const auto m = adversarial_matrix(200, 81);
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;
  for (const auto backend :
       {vec::DistBackend::kGram, vec::DistBackend::kDirect}) {
    vec::set_dist_backend(backend);
    agg::MultiKrumAggregator krum;
    agg::BulyanAggregator bulyan;
    common::set_thread_count(1);
    const auto krum_t1 = krum.aggregate(m, ctx);
    const auto bulyan_t1 = bulyan.aggregate(m, ctx);
    common::set_thread_count(4);
    EXPECT_EQ(krum.aggregate(m, ctx), krum_t1);
    EXPECT_EQ(bulyan.aggregate(m, ctx), bulyan_t1);
  }
}

TEST(GramAggregation, BackendsPickTheSameKrumSelectionOnSeparatedInputs) {
  BackendGuard guard;
  // Benign cluster + blatant outliers: the selection decision has a wide
  // margin, so both numeric flavours must agree exactly on *which*
  // gradients survive even though scores differ in low-order bits.
  auto m = gaussian_matrix(12, 100, 0.5, 0.1, 91);
  for (auto& v : m.row(10)) v = 300.0f;
  for (auto& v : m.row(11)) v = -300.0f;
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;
  agg::MultiKrumAggregator krum;
  vec::set_dist_backend(vec::DistBackend::kGram);
  krum.aggregate(m, ctx);
  const auto sel_gram = krum.last_selected();
  vec::set_dist_backend(vec::DistBackend::kDirect);
  krum.aggregate(m, ctx);
  EXPECT_EQ(sel_gram, krum.last_selected());
  for (const auto idx : sel_gram) EXPECT_LT(idx, 10u);
}

// ---- quantile selection satellite ------------------------------------------

TEST(QuantileSelection, MatchesSortOracleExactly) {
  Rng rng(101);
  for (const std::size_t n : {1ul, 2ul, 7ul, 100ul}) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.normal(0.0, 10.0);
    // Duplicates stress tie handling in the selection path.
    if (n >= 4) xs[n / 2] = xs[0];
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0}) {
      // Sort-based oracle (the seed implementation).
      std::vector<double> v(xs);
      std::sort(v.begin(), v.end());
      const std::size_t last = v.size() - 1;
      const double pos = q * double(last);
      const std::size_t lo =
          std::min(static_cast<std::size_t>(std::floor(pos)), last);
      const std::size_t hi =
          std::min(static_cast<std::size_t>(std::ceil(pos)), last);
      const double frac = pos - double(lo);
      const double expected = v[lo] * (1.0 - frac) + v[hi] * frac;
      EXPECT_EQ(stats::quantile(xs, q), expected) << "n=" << n << " q=" << q;
    }
  }
  EXPECT_TRUE(std::isnan(stats::quantile({}, 0.5)));
}

}  // namespace
}  // namespace signguard
