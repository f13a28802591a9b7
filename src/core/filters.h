#pragma once
// The two collaborative filters of SignGuard (paper Algorithm 2) as
// standalone, individually testable components, plus the norm-clipped mean
// aggregation step. The SignGuard aggregator composes them; the Table III
// ablation bench toggles them one by one.
//
// Every filter takes the round's common::GradientMatrix: row norms, the
// fused sign-statistic pass and the pairwise similarity blocks all run on
// the shared thread pool.

#include <span>
#include <vector>

#include "cluster/meanshift.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"  // SignStats
#include "common/rng.h"

namespace signguard::core {

// ---- Step 1: norm-based thresholding --------------------------------------

struct NormFilterConfig {
  double lower = 0.1;  // L: loose lower bound (small gradients are harmless)
  double upper = 3.0;  // R: strict upper bound (huge gradients are malicious)
};

struct NormFilterResult {
  std::vector<std::size_t> accepted;  // S1: indices with L <= ||g||/M <= R
  double median_norm = 0.0;           // M, reused as the clipping bound
  std::vector<double> norms;          // per-gradient l2 norms
};

NormFilterResult norm_filter(const common::GradientMatrix& grads,
                             const NormFilterConfig& cfg);

// Statistics-input entry point: the same filter given precomputed
// per-gradient norms (norm_filter delegates here after one
// vec::row_norms pass). This is what the compressed-domain wire path
// feeds with comm::wire_row_norms — bitwise-identical norms in, so
// bitwise-identical admission decisions out.
NormFilterResult norm_filter_from_norms(std::vector<double> norms,
                                        const NormFilterConfig& cfg);

// ---- Step 2: sign-based clustering -----------------------------------------

// Which similarity feature to append to the sign statistics: none is the
// plain SignGuard; cosine is SignGuard-Sim; distance is SignGuard-Dist.
enum class SimilarityFeature { kNone, kCosine, kDistance };

enum class Clusterer { kMeanShift, kKMeans2 };

struct SignClusterConfig {
  double coord_frac = 0.1;  // fraction of coordinates randomly sampled
  SimilarityFeature similarity = SimilarityFeature::kNone;
  Clusterer clusterer = Clusterer::kMeanShift;
  cluster::MeanShiftConfig meanshift = {};
};

struct SignClusterResult {
  std::vector<std::size_t> accepted;        // S2: the largest cluster
  common::GradientMatrix features;          // one feature row per gradient
  std::size_t n_clusters = 0;
};

// `reference` is the "correct gradient" proxy for the similarity feature
// (the previous round's aggregate). When empty, the median of pairwise
// similarities is used instead, as suggested in §IV-B. `median_norm`
// normalizes the distance feature to a dimensionless scale.
SignClusterResult sign_cluster_filter(const common::GradientMatrix& grads,
                                      std::span<const float> reference,
                                      double median_norm,
                                      const SignClusterConfig& cfg, Rng& rng);

// Statistics-input entry point: clustering on precomputed per-client
// sign statistics (plus the similarity feature when cfg.similarity is
// not kNone — `similarity` must then hold one value per client; it is
// ignored otherwise). sign_cluster_filter delegates here after its
// fused sign_statistics pass; the wire path feeds it from
// comm::wire_sign_stats. Consumes the Rng exactly like
// sign_cluster_filter's clustering stage (only kKMeans2 draws), so the
// two paths stay stream-aligned.
SignClusterResult sign_cluster_filter_from_stats(
    std::span<const SignStats> stats, std::span<const double> similarity,
    const SignClusterConfig& cfg, Rng& rng);

// ---- Step 3: aggregation ----------------------------------------------------

// Mean over the selected gradients with per-gradient norm clipping:
//   (1/|S|) * sum_{i in S} g_i * min(1, bound/||g_i||)       (Algorithm 2,
// line 14). With clip == false it degrades to the plain subset mean.
// `row_norms`, when non-empty, supplies ||g_i|| indexed by GLOBAL row
// (one entry per matrix row, not per selected index) and skips the
// per-row norm recomputation — the norm filter already paid for it.
// vec::norm(row) and a row_norms entry are the same accumulation chain,
// so passing them is a bitwise no-op.
std::vector<float> clipped_mean(const common::GradientMatrix& grads,
                                std::span<const std::size_t> selected,
                                double bound, bool clip = true,
                                std::span<const double> row_norms = {});

// Sorted intersection of two index sets (each unsorted, duplicate-free).
std::vector<std::size_t> intersect_indices(std::span<const std::size_t> a,
                                           std::span<const std::size_t> b);

}  // namespace signguard::core
