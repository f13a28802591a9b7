// Clustering substrate tests: K-Means and Mean-Shift on synthetic blob
// data plus the degenerate inputs SignGuard can feed them (identical
// points, single points, one outlier).

#include <gtest/gtest.h>

#include <set>

#include "cluster/kmeans.h"
#include "cluster/meanshift.h"
#include "common/rng.h"
#include "test_support.h"

namespace signguard::cluster {
namespace {

using common::GradientMatrix;

// Two well separated blobs of sizes a and b around +/- center.
GradientMatrix two_blobs(std::size_t a, std::size_t b,
                                          double center, double spread,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> pts;
  for (std::size_t i = 0; i < a; ++i)
    pts.push_back({static_cast<float>(rng.normal(center, spread)),
                   static_cast<float>(rng.normal(center, spread))});
  for (std::size_t i = 0; i < b; ++i)
    pts.push_back({static_cast<float>(rng.normal(-center, spread)),
                   static_cast<float>(rng.normal(-center, spread))});
  return GradientMatrix::from_vectors(pts);
}

TEST(KMeans, SeparatesTwoBlobs) {
  const auto pts = two_blobs(20, 10, 5.0, 0.3, 1);
  Rng rng(2);
  const ClusterResult r = kmeans(pts, KMeansConfig{.k = 2}, rng);
  EXPECT_EQ(r.n_clusters, 2u);
  // All members of the first blob share a label distinct from the second.
  for (std::size_t i = 1; i < 20; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
  for (std::size_t i = 21; i < 30; ++i)
    EXPECT_EQ(r.labels[i], r.labels[20]);
  EXPECT_NE(r.labels[0], r.labels[20]);
  EXPECT_EQ(r.sizes[std::size_t(r.largest_cluster())], 20u);
}

TEST(KMeans, MembersMatchesLabels) {
  const auto pts = two_blobs(5, 3, 4.0, 0.2, 3);
  Rng rng(4);
  const ClusterResult r = kmeans(pts, KMeansConfig{.k = 2}, rng);
  const auto members = r.members(r.largest_cluster());
  EXPECT_EQ(members.size(), 5u);
  for (const auto idx : members)
    EXPECT_EQ(r.labels[idx], r.largest_cluster());
}

TEST(KMeans, MoreClustersThanPoints) {
  const auto pts = test::matrix({{0.0f}, {1.0f}});
  Rng rng(5);
  const ClusterResult r = kmeans(pts, KMeansConfig{.k = 5}, rng);
  EXPECT_EQ(r.n_clusters, 2u);
}

TEST(KMeans, IdenticalPointsFormOneEffectiveCluster) {
  const auto pts = test::constant_matrix(10, 2, 1.0f);
  Rng rng(6);
  const ClusterResult r = kmeans(pts, KMeansConfig{.k = 2}, rng);
  // All points coincide: the largest cluster holds everything that
  // matters; no point may sit away from its center.
  EXPECT_EQ(r.sizes[std::size_t(r.largest_cluster())], 10u);
}

TEST(KMeans, DuplicatePointsNeverSeedTwoIdenticalCenters) {
  // Two distinct locations, each heavily duplicated. k-means++ must not
  // seed both centers on copies of the same point (which previously left
  // an empty cluster behind), for any seed.
  std::vector<std::vector<float>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({0.0f, 0.0f});
  for (int i = 0; i < 6; ++i) rows.push_back({5.0f, 5.0f});
  const auto pts = GradientMatrix::from_vectors(rows);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const ClusterResult r = kmeans(pts, KMeansConfig{.k = 2}, rng);
    ASSERT_EQ(r.n_clusters, 2u) << "seed=" << seed;
    EXPECT_EQ(r.sizes[0], 6u) << "seed=" << seed;
    EXPECT_EQ(r.sizes[1], 6u) << "seed=" << seed;
    // Members of each location agree on their label.
    for (int i = 1; i < 6; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
    for (int i = 7; i < 12; ++i) EXPECT_EQ(r.labels[i], r.labels[6]);
    EXPECT_NE(r.labels[0], r.labels[6]);
  }
}

TEST(KMeans, MostlyDuplicatesWithOneOutlier) {
  // 9 copies of one point + 1 outlier: whichever point seeds first, the
  // second center must land on the other location and no cluster may end
  // up empty.
  auto pts = test::constant_matrix(10, 2, 1.0f);
  pts.at(9, 0) = pts.at(9, 1) = 9.0f;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const ClusterResult r = kmeans(pts, KMeansConfig{.k = 2}, rng);
    ASSERT_EQ(r.n_clusters, 2u) << "seed=" << seed;
    for (const auto size : r.sizes) EXPECT_GT(size, 0u) << "seed=" << seed;
    EXPECT_EQ(r.sizes[std::size_t(r.largest_cluster())], 9u);
  }
}

TEST(ClusterResultGuards, EmptyResultIsSafe) {
  const ClusterResult empty;
  EXPECT_EQ(empty.largest_cluster(), -1);
  EXPECT_TRUE(empty.members(-1).empty());
  EXPECT_TRUE(empty.members(0).empty());
}

TEST(MeanShift, FindsTwoModes) {
  const auto pts = two_blobs(25, 12, 5.0, 0.25, 7);
  const ClusterResult r = mean_shift(pts);
  EXPECT_EQ(r.n_clusters, 2u);
  EXPECT_EQ(r.sizes[std::size_t(r.largest_cluster())], 25u);
}

TEST(MeanShift, SingleBlobIsOneCluster) {
  const auto pts = two_blobs(30, 0, 3.0, 0.3, 8);
  const ClusterResult r = mean_shift(pts);
  EXPECT_EQ(r.n_clusters, 1u);
  EXPECT_EQ(r.sizes[0], 30u);
}

TEST(MeanShift, AdaptiveClusterCountWithThreeBlobs) {
  Rng rng(9);
  std::vector<std::vector<float>> rows;
  for (const double cx : {-6.0, 0.0, 6.0})
    for (int i = 0; i < 12; ++i)
      rows.push_back({static_cast<float>(rng.normal(cx, 0.2)),
                      static_cast<float>(rng.normal(0.0, 0.2))});
  const auto pts = GradientMatrix::from_vectors(rows);
  MeanShiftConfig cfg;
  cfg.bandwidth = 1.5;
  const ClusterResult r = mean_shift(pts, cfg);
  EXPECT_EQ(r.n_clusters, 3u);
}

TEST(MeanShift, IdenticalPointsDegenerate) {
  const auto pts = test::constant_matrix(8, 3, 0.5f);
  const ClusterResult r = mean_shift(pts);
  EXPECT_EQ(r.n_clusters, 1u);
  EXPECT_EQ(r.sizes[0], 8u);
}

TEST(MeanShift, SinglePoint) {
  const auto pts = test::matrix({{1.0f, 2.0f}});
  const ClusterResult r = mean_shift(pts);
  EXPECT_EQ(r.n_clusters, 1u);
  EXPECT_EQ(r.labels[0], 0);
}

TEST(MeanShift, EmptyInput) {
  const GradientMatrix pts;
  const ClusterResult r = mean_shift(pts);
  EXPECT_EQ(r.n_clusters, 0u);
  EXPECT_TRUE(r.labels.empty());
}

TEST(MeanShift, OutlierIsolatedIntoOwnCluster) {
  // Draws a 21st blob point, then moves it far away.
  auto pts = two_blobs(21, 0, 2.0, 0.2, 10);
  pts.at(20, 0) = pts.at(20, 1) = 50.0f;
  MeanShiftConfig cfg;
  cfg.bandwidth = 1.0;
  const ClusterResult r = mean_shift(pts, cfg);
  EXPECT_EQ(r.n_clusters, 2u);
  EXPECT_EQ(r.sizes[std::size_t(r.labels.back())], 1u);
}

TEST(EstimateBandwidth, PositiveAndScalesWithSpread) {
  const auto tight = two_blobs(10, 10, 1.0, 0.05, 11);
  const auto wide = two_blobs(10, 10, 10.0, 0.5, 11);
  const double bw_tight = estimate_bandwidth(tight, 0.3);
  const double bw_wide = estimate_bandwidth(wide, 0.3);
  EXPECT_GT(bw_tight, 0.0);
  EXPECT_GT(bw_wide, bw_tight);
}

TEST(EstimateBandwidth, FloorOnDegenerateInput) {
  const auto pts = test::constant_matrix(4, 1, 1.0f);
  EXPECT_GT(estimate_bandwidth(pts, 0.3), 0.0);
}

}  // namespace
}  // namespace signguard::cluster
