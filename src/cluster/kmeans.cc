#include "cluster/kmeans.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/parallel.h"
#include "common/vecops.h"

namespace signguard::cluster {

int ClusterResult::largest_cluster() const {
  if (n_clusters == 0) return -1;
  return int(std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

std::vector<std::size_t> ClusterResult::members(int cluster_id) const {
  std::vector<std::size_t> out;
  if (cluster_id < 0 || std::size_t(cluster_id) >= n_clusters) return out;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (labels[i] == cluster_id) out.push_back(i);
  return out;
}

namespace {

// Flat k x d center store so centers stay contiguous too.
struct Centers {
  std::size_t k = 0, d = 0;
  std::vector<float> data;
  std::span<float> row(std::size_t c) { return {data.data() + c * d, d}; }
  std::span<const float> row(std::size_t c) const {
    return {data.data() + c * d, d};
  }
};

}  // namespace

ClusterResult kmeans(const common::GradientMatrix& points,
                     const KMeansConfig& cfg, Rng& rng) {
  const std::size_t n = points.rows();
  ClusterResult result;
  if (n == 0) return result;
  const std::size_t k = std::min(cfg.k, n);
  const std::size_t d = points.cols();

  // k-means++ seeding. Seed draws stay on the calling thread so the Rng
  // stream is identical for any pool size; only the distance scans fan
  // out.
  Centers centers{0, d, {}};
  auto push_center = [&](std::size_t idx) {
    const auto p = points.row(idx);
    centers.data.insert(centers.data.end(), p.begin(), p.end());
    ++centers.k;
  };
  push_center(std::size_t(rng.randint(0, int(n) - 1)));
  std::vector<double> min_d2(n, 0.0);
  while (centers.k < k) {
    common::parallel_for(n, [&](std::size_t i) {
      double best = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < centers.k; ++c)
        best = std::min(best, vec::dist2(points.row(i), centers.row(c)));
      min_d2[i] = best;
    });
    double total = 0.0;
    for (const double v : min_d2) total += v;
    if (total <= 0.0) {
      // Every remaining point coincides with an existing center (e.g.
      // duplicate inputs): another center would duplicate one and orphan
      // a cluster, so stop seeding early with fewer centers.
      break;
    }
    // Weighted draw; zero-weight points (exact duplicates of a chosen
    // center) can never be selected, and FP round-off at the end of the
    // scan falls back to the last positive-weight point.
    double r = rng.uniform(0.0, total);
    std::size_t chosen = n;  // sentinel
    for (std::size_t i = 0; i < n; ++i) {
      if (min_d2[i] <= 0.0) continue;
      chosen = i;
      r -= min_d2[i];
      if (r <= 0.0) break;
    }
    assert(chosen < n);
    push_center(chosen);
  }
  const std::size_t k_eff = centers.k;

  std::vector<int> labels(n, 0);
  for (std::size_t iter = 0; iter < cfg.max_iters; ++iter) {
    // Assign (parallel over points; ties go to the lowest center id, so
    // the outcome is thread-count-independent).
    common::parallel_for(n, [&](std::size_t i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (std::size_t c = 0; c < k_eff; ++c) {
        const double d2 = vec::dist2(points.row(i), centers.row(c));
        if (d2 < best) {
          best = d2;
          best_c = int(c);
        }
      }
      labels[i] = best_c;
    });
    // Update.
    std::vector<std::vector<double>> sums(k_eff, std::vector<double>(d, 0.0));
    std::vector<std::size_t> counts(k_eff, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = std::size_t(labels[i]);
      ++counts[c];
      const auto p = points.row(i);
      for (std::size_t j = 0; j < d; ++j) sums[c][j] += p[j];
    }
    // Guard empty clusters: relocate each to the point currently farthest
    // from its assigned center (deterministic: first maximum wins)
    // instead of leaving a dead center around. The donor cluster's stale
    // mean self-corrects on the next iteration, which always runs because
    // the relocation registers as center movement.
    std::vector<bool> frozen(k_eff, false);
    bool relocated = false;
    for (std::size_t c = 0; c < k_eff; ++c) {
      if (counts[c] > 0) continue;
      double far_d2 = -1.0;
      std::size_t far_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d2 =
            vec::dist2(points.row(i), centers.row(std::size_t(labels[i])));
        if (d2 > far_d2) {
          far_d2 = d2;
          far_i = i;
        }
      }
      const auto p = points.row(far_i);
      const auto cr = centers.row(c);
      std::copy(p.begin(), p.end(), cr.begin());
      labels[far_i] = int(c);
      counts[c] = 1;
      frozen[c] = true;  // sums[c] is stale; keep the relocated center
      relocated = true;
    }
    double movement = relocated ? cfg.tol + 1.0 : 0.0;
    for (std::size_t c = 0; c < k_eff; ++c) {
      if (counts[c] == 0 || frozen[c]) continue;
      std::vector<float> nc(d);
      for (std::size_t j = 0; j < d; ++j)
        nc[j] = static_cast<float>(sums[c][j] / double(counts[c]));
      movement += vec::dist2(centers.row(c), nc);
      const auto cr = centers.row(c);
      std::copy(nc.begin(), nc.end(), cr.begin());
    }
    if (movement < cfg.tol) break;
  }

  result.labels = std::move(labels);
  result.n_clusters = k_eff;
  result.sizes.assign(k_eff, 0);
  for (const int l : result.labels) ++result.sizes[std::size_t(l)];
  return result;
}

}  // namespace signguard::cluster
