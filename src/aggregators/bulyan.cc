#include <algorithm>

#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/gradient_stats.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {

std::vector<float> BulyanAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext& ctx) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/bulyan", std::int64_t(n));
  const std::size_t m = std::min(ctx.assumed_byzantine, (n - 1) / 2);

  // Phase 1: iterative Krum. Repeatedly pick the gradient with the lowest
  // Krum score among the remaining set and move it to the selection set,
  // until theta = n - 2m gradients are selected. One packed pairwise
  // block and its presorted neighbour lists are built up front (Gram GEMM
  // or direct loops) and reused across every iteration; removals only
  // flip the exclusion mask, and a score walks the head of a list.
  const std::size_t theta = std::max<std::size_t>(1, n - 2 * m);
  const PairwiseDistances pd(grads);
  std::vector<char> excluded(n, 0);
  std::size_t remaining = n;
  selected_.clear();
  while (selected_.size() < theta && remaining > 0) {
    // Krum neighborhood within the remaining set.
    const std::size_t k =
        std::max<std::size_t>(1, remaining > m + 2 ? remaining - m - 2 : 1);
    // Lowest score wins, ties to the lower index; a remaining row is
    // always picked, even when every score is +inf (non-finite rows).
    double best_score = 0.0;
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      const double score = pd.krum_score(i, k, excluded);
      if (best == n || score < best_score) {
        best_score = score;
        best = i;
      }
    }
    selected_.push_back(best);
    excluded[best] = 1;
    --remaining;
  }

  // Phase 2: per coordinate, average the beta = theta - 2m selected values
  // closest to the coordinate median, all coordinates of a column tile
  // at once on one sorting network (vec::mean_around_median_columns).
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterAdmits,
             selected_.size());
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects,
             n - selected_.size());
  const std::size_t beta =
      std::max<std::size_t>(1, theta > 2 * m ? theta - 2 * m : 1);
  return vec::mean_around_median_columns(grads, selected_, beta);
}

}  // namespace signguard::agg
