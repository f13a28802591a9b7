#include "cluster/meanshift.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/vecops.h"

namespace signguard::cluster {

double estimate_bandwidth(const common::GradientMatrix& points,
                          double quantile) {
  // sklearn-style estimator: for each point take the distance to its
  // k-th nearest neighbour (k = quantile * n) and average. This tracks
  // the local cluster scale rather than the global spread, so tight
  // majority clusters get a bandwidth that still covers them.
  const std::size_t n = points.rows();
  if (n < 2) return 1e-3;
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(quantile * double(n)));
  std::vector<double> knn(n, 0.0);
  common::parallel_chunks(
      n, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> row(n);  // one scratch buffer per chunk
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < n; ++j)
            row[j] = vec::dist(points.row(i), points.row(j));
          std::nth_element(row.begin(), row.begin() + std::min(k, n - 1),
                           row.end());
          knn[i] = row[std::min(k, n - 1)];
        }
      });
  double acc = 0.0;
  for (const double v : knn) acc += v;
  return std::max(acc / double(n), 1e-3);
}

ClusterResult mean_shift(const common::GradientMatrix& points,
                         const MeanShiftConfig& cfg) {
  ClusterResult result;
  const std::size_t n = points.rows();
  if (n == 0) return result;
  const std::size_t d = points.cols();
  const double bw = cfg.bandwidth > 0.0
                        ? cfg.bandwidth
                        : estimate_bandwidth(points, cfg.bandwidth_quantile);
  const double bw2 = bw * bw;

  // Shift every point to its local mode under the flat kernel. Each
  // point's trajectory only reads the (immutable) input matrix, so the
  // per-point loops run independently on the pool.
  common::GradientMatrix modes = points;
  common::parallel_chunks(
      n, [&](std::size_t chunk_begin, std::size_t chunk_end, std::size_t) {
        std::vector<double> win(d);  // one window accumulator per chunk
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          const auto mode = modes.row(i);
          for (std::size_t iter = 0; iter < cfg.max_iters; ++iter) {
            std::fill(win.begin(), win.end(), 0.0);
            std::size_t count = 0;
            for (std::size_t j = 0; j < n; ++j) {
              if (vec::dist2(mode, points.row(j)) <= bw2) {
                ++count;
                const auto p = points.row(j);
                for (std::size_t c = 0; c < d; ++c) win[c] += p[c];
              }
            }
            // A point normally sits inside its own window; a non-finite
            // feature row (possible with adversarial inputs) fails every
            // distance test. Leave it where it is — it will isolate into
            // its own cluster.
            if (count == 0) break;
            double shift2 = 0.0;
            for (std::size_t c = 0; c < d; ++c) {
              const double nc = win[c] / double(count);
              const double delta = nc - double(mode[c]);
              shift2 += delta * delta;
              mode[c] = static_cast<float>(nc);
            }
            if (shift2 < cfg.tol * cfg.tol) break;
          }
        }
      });

  // Merge modes within one bandwidth of each other (sklearn semantics)
  // and label points by merged mode. Sequential: first-come cluster ids
  // keep the labelling deterministic.
  const double merge2 = bw * bw;
  std::vector<std::size_t> center_mode;  // index into modes
  result.labels.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    int assigned = -1;
    for (std::size_t c = 0; c < center_mode.size(); ++c) {
      if (vec::dist2(modes.row(i), modes.row(center_mode[c])) <= merge2) {
        assigned = int(c);
        break;
      }
    }
    if (assigned < 0) {
      center_mode.push_back(i);
      assigned = int(center_mode.size()) - 1;
    }
    result.labels[i] = assigned;
  }
  result.n_clusters = center_mode.size();
  result.sizes.assign(result.n_clusters, 0);
  for (const int l : result.labels) ++result.sizes[std::size_t(l)];
  return result;
}

}  // namespace signguard::cluster
