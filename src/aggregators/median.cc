#include <algorithm>

#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {

std::vector<float> MedianAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext&) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/median", std::int64_t(n));
  std::vector<float> out(grads.cols());
  const std::size_t mid = n / 2;
  // Column-panel sweep: fixed-width column tiles are transposed once into
  // a contiguous per-worker panel (vec::for_each_column), then each
  // column is an in-place nth_element over contiguous floats — no
  // per-coordinate stride-d gather. The column holds the same values in
  // the same row order as the old per-coordinate copy, so the selected
  // median is bitwise unchanged.
  vec::for_each_column(grads, [&](std::size_t j, std::span<float> col) {
    std::nth_element(col.begin(), col.begin() + std::ptrdiff_t(mid),
                     col.end());
    if (n % 2 == 1) {
      out[j] = col[mid];
    } else {
      const float lo =
          *std::max_element(col.begin(), col.begin() + std::ptrdiff_t(mid));
      out[j] = 0.5f * (lo + col[mid]);
    }
  });
  return out;
}

}  // namespace signguard::agg
