#include <algorithm>
#include <numeric>

#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/gradient_stats.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {

std::vector<float> MultiKrumAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext& ctx) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/multi-krum", std::int64_t(n));
  const std::size_t m = std::min(ctx.assumed_byzantine, (n - 1) / 2);
  // Krum's neighborhood size; at least 1 so tiny test fixtures work.
  const std::size_t k =
      std::max<std::size_t>(1, n > m + 2 ? n - m - 2 : 1);

  // The O(n^2 d) pairwise block runs as one Gram GEMM (or the direct
  // pair loops under SIGNGUARD_DIST=direct), and its O(n^2 log n)
  // neighbour-list sorts fan out over rows; a score is then an O(k) sum
  // over the head of one list.
  const PairwiseDistances pd(grads);
  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) scores[i] = pd.krum_score(i, k);

  // Select the k best-scored gradients and average them. Only the top k
  // need ordering, so partial_sort the index array instead of fully
  // sorting all n scores; ties break on the lower index, which both a
  // full sort and the partial sort resolve identically.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t select = std::min(k, n);
  const auto by_score = [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b] || (scores[a] == scores[b] && a < b);
  };
  std::partial_sort(order.begin(), order.begin() + std::ptrdiff_t(select),
                    order.end(), by_score);
  selected_.assign(order.begin(), order.begin() + std::ptrdiff_t(select));
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterAdmits,
             selected_.size());
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects,
             n - selected_.size());
  return vec::mean_of_subset(grads, selected_);
}

}  // namespace signguard::agg
