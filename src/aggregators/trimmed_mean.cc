#include <algorithm>

#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {

std::vector<float> TrimmedMeanAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext& ctx) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/trimmed-mean", std::int64_t(n));
  // Trim m from each side but always keep at least one value.
  const std::size_t trim =
      std::min(ctx.assumed_byzantine, (n - 1) / 2);
  std::vector<float> out(grads.cols());
  // Column-panel sweep over contiguous columns (vec::for_each_column),
  // with selection instead of a full sort: two nth_element cuts isolate
  // the middle ranks, and only that kept segment is sorted so the
  // accumulation still runs in ascending value order — the same partial
  // sums, bit for bit, as sorting the whole column.
  vec::for_each_column(grads, [&](std::size_t j, std::span<float> col) {
    const auto keep_begin = col.begin() + std::ptrdiff_t(trim);
    const auto keep_end = col.begin() + std::ptrdiff_t(n - trim);
    if (trim > 0) {
      std::nth_element(col.begin(), keep_begin, col.end());
      std::nth_element(keep_begin, keep_end - 1, col.end());
    }
    std::sort(keep_begin, keep_end);
    double acc = 0.0;
    for (auto it = keep_begin; it != keep_end; ++it) acc += *it;
    out[j] = static_cast<float>(acc / double(n - 2 * trim));
  });
  return out;
}

}  // namespace signguard::agg
