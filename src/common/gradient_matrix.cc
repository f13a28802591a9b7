#include "common/gradient_matrix.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"

namespace signguard::common {

GradientMatrix GradientMatrix::from_vectors(
    std::span<const std::vector<float>> rows) {
  const std::vector<std::span<const float>> views(rows.begin(), rows.end());
  return from_views(views);
}

GradientMatrix GradientMatrix::from_views(
    std::span<const std::span<const float>> rows) {
  GradientMatrix m;
  if (rows.empty()) return m;
  for (const auto& r : rows)
    if (r.size() != rows.front().size())
      throw std::invalid_argument(
          "GradientMatrix: rows of inconsistent dimension");
  m.rows_ = rows.size();
  m.cols_ = rows.front().size();
  m.data_.resize(m.rows_ * m.cols_);
  parallel_for(m.rows_, [&](std::size_t i) {
    std::copy(rows[i].begin(), rows[i].end(),
              m.data_.begin() + std::ptrdiff_t(i * m.cols_));
  });
  return m;
}

void GradientMatrix::fill_zero() {
  std::fill(data_.begin(), data_.end(), 0.0f);
}

std::vector<std::span<const float>> GradientMatrix::row_views() const {
  std::vector<std::span<const float>> views;
  views.reserve(rows_);
  for (std::size_t i = 0; i < rows_; ++i) views.push_back(row(i));
  return views;
}

}  // namespace signguard::common
