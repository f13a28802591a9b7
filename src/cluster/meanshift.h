#pragma once
// Mean-Shift clustering (Comaniciu & Meer, 2002) with a flat kernel and
// automatic bandwidth estimation — the unsupervised model SignGuard's
// sign-based filter trains each round (paper §IV-B, Algorithm 2 step 2).
// The number of clusters is adaptive: every convergent mode within
// bandwidth/2 of another is merged.

#include "cluster/cluster_result.h"
#include "common/gradient_matrix.h"

namespace signguard::cluster {

struct MeanShiftConfig {
  // <= 0 means "estimate from the data" (average k-NN distance with
  // k = quantile * n, sklearn-style).
  double bandwidth = 0.0;
  double bandwidth_quantile = 0.5;
  std::size_t max_iters = 100;
  double tol = 1e-5;  // per-point shift convergence threshold
};

// Estimate a bandwidth as the given quantile of the pairwise distance
// distribution; returns a small positive floor when points coincide.
// Mode seeking runs per point on the thread pool.
double estimate_bandwidth(const common::GradientMatrix& points,
                          double quantile);

ClusterResult mean_shift(const common::GradientMatrix& points,
                         const MeanShiftConfig& cfg = {});

}  // namespace signguard::cluster
