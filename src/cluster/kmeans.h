#pragma once
// K-Means with k-means++ seeding. Used by SignGuard when the caller knows
// two clusters suffice (all malicious clients sending one identical
// vector, paper §IV-B), and as a comparison clusterer in tests/ablations.

#include "cluster/cluster_result.h"
#include "common/gradient_matrix.h"
#include "common/rng.h"

namespace signguard::cluster {

struct KMeansConfig {
  std::size_t k = 2;
  std::size_t max_iters = 50;
  double tol = 1e-6;  // squared-center-movement convergence threshold
};

// points: n rows of equal dimension. Returns labels over [0, k).
// If n < k, every point gets its own cluster. Assignment runs in
// parallel over row spans.
ClusterResult kmeans(const common::GradientMatrix& points,
                     const KMeansConfig& cfg, Rng& rng);

}  // namespace signguard::cluster
