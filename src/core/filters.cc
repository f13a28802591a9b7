#include "core/filters.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cluster/kmeans.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/vecops.h"

namespace signguard::core {

NormFilterResult norm_filter_from_norms(std::vector<double> norms,
                                        const NormFilterConfig& cfg) {
  NormFilterResult r;
  r.norms = std::move(norms);
  // Byzantine payloads may carry NaN/Inf; they are rejected outright and
  // excluded from the median so they cannot poison the reference norm.
  std::vector<double> finite;
  finite.reserve(r.norms.size());
  for (const double n : r.norms)
    if (std::isfinite(n)) finite.push_back(n);
  if (finite.empty()) return r;  // nothing trustworthy this round
  r.median_norm = stats::median(finite);
  // Degenerate case: all-zero gradients; accept the finite ones (nothing
  // to threshold against) and let aggregation return zero.
  if (r.median_norm <= 0.0) {
    for (std::size_t i = 0; i < r.norms.size(); ++i)
      if (std::isfinite(r.norms[i])) r.accepted.push_back(i);
    return r;
  }
  for (std::size_t i = 0; i < r.norms.size(); ++i) {
    if (!std::isfinite(r.norms[i])) continue;
    const double ratio = r.norms[i] / r.median_norm;
    if (ratio >= cfg.lower && ratio <= cfg.upper) r.accepted.push_back(i);
  }
  return r;
}

NormFilterResult norm_filter(const common::GradientMatrix& grads,
                             const NormFilterConfig& cfg) {
  return norm_filter_from_norms(vec::row_norms(grads), cfg);
}

SignClusterResult sign_cluster_filter(const common::GradientMatrix& grads,
                                      std::span<const float> reference,
                                      double median_norm,
                                      const SignClusterConfig& cfg,
                                      Rng& rng) {
  SignClusterResult result;
  const std::size_t n = grads.rows();
  if (n == 0) return result;
  const std::size_t d = grads.cols();

  // Randomized coordinate selection, shared by every gradient this round
  // (drawn on the calling thread so the Rng stream is pool-size
  // independent).
  const auto coords = select_coordinates(d, cfg.coord_frac, rng);

  // Fused threaded pass: per-client sign statistics over the shared
  // coordinate subset.
  const std::vector<SignStats> stats_rows = sign_statistics(grads, coords);

  // Optional similarity feature, computed for all clients at once: one
  // threaded row_dots/row_norms pass against the reference, or one
  // threaded pairwise block when no reference exists yet.
  std::vector<double> similarity(n, 0.0);
  switch (cfg.similarity) {
    case SimilarityFeature::kNone:
      break;  // plain SignGuard: sign statistics only
    case SimilarityFeature::kCosine: {
      if (reference.empty()) {
        similarity = median_pairwise_cosines(grads);
      } else {
        const auto dots = vec::row_dots(grads, reference);
        const auto norms = vec::row_norms(grads);
        const double ref_norm = vec::norm(reference);
        for (std::size_t i = 0; i < n; ++i)
          similarity[i] = (norms[i] == 0.0 || ref_norm == 0.0)
                              ? 0.0
                              : dots[i] / (norms[i] * ref_norm);
      }
      break;
    }
    case SimilarityFeature::kDistance: {
      std::vector<double> dist(n, 0.0);
      if (reference.empty()) {
        // Median distance to the other gradients as the proxy.
        dist = median_pairwise_distances(grads);
      } else {
        common::parallel_for(n, [&](std::size_t i) {
          dist[i] = vec::dist(grads.row(i), reference);
        });
      }
      // Normalize by the median norm so the feature is dimensionless
      // and comparable in scale to the sign proportions.
      const double scale = median_norm > 0.0 ? median_norm : 1.0;
      for (std::size_t i = 0; i < n; ++i) similarity[i] = dist[i] / scale;
      break;
    }
  }

  return sign_cluster_filter_from_stats(stats_rows, similarity, cfg, rng);
}

SignClusterResult sign_cluster_filter_from_stats(
    std::span<const SignStats> stats, std::span<const double> similarity,
    const SignClusterConfig& cfg, Rng& rng) {
  SignClusterResult result;
  const std::size_t n = stats.size();
  if (n == 0) return result;
  const bool has_similarity = cfg.similarity != SimilarityFeature::kNone;
  assert(!has_similarity || similarity.size() == n);

  // Feature rows live in their own small flat matrix (n x 3 or n x 4)
  // that the clusterers consume and the result keeps for diagnostics.
  const std::size_t feat_dim = has_similarity ? 4 : 3;
  auto& features = result.features;
  features = common::GradientMatrix(n, feat_dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = features.row(i);
    f[0] = static_cast<float>(stats[i].pos);
    f[1] = static_cast<float>(stats[i].zero);
    f[2] = static_cast<float>(stats[i].neg);
    if (has_similarity) f[3] = static_cast<float>(similarity[i]);
  }

  cluster::ClusterResult cr;
  if (cfg.clusterer == Clusterer::kMeanShift) {
    cr = cluster::mean_shift(features, cfg.meanshift);
  } else {
    cluster::KMeansConfig km;
    km.k = 2;
    cr = cluster::kmeans(features, km, rng);
  }
  result.n_clusters = cr.n_clusters;
  result.accepted = cr.members(cr.largest_cluster());
  return result;
}

std::vector<float> clipped_mean(const common::GradientMatrix& grads,
                                std::span<const std::size_t> selected,
                                double bound, bool clip,
                                std::span<const double> row_norms) {
  assert(!selected.empty());
  assert(row_norms.empty() || row_norms.size() == grads.rows());
  // Per-row clip weights — from the caller's precomputed norms when it
  // has them (the norm filter's pass), else one threaded norm pass —
  // then one coordinate-parallel weighted accumulation.
  std::vector<double> weights(selected.size(), 1.0);
  if (clip && bound > 0.0) {
    common::parallel_for(selected.size(), [&](std::size_t k) {
      const double nrm = row_norms.empty()
                             ? vec::norm(grads.row(selected[k]))
                             : row_norms[selected[k]];
      if (nrm > bound) weights[k] = bound / nrm;
    });
  }
  return vec::weighted_mean_of_subset(grads, selected, weights);
}

std::vector<std::size_t> intersect_indices(std::span<const std::size_t> a,
                                           std::span<const std::size_t> b) {
  std::vector<std::size_t> sa(a.begin(), a.end());
  std::vector<std::size_t> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::vector<std::size_t> out;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace signguard::core
