#pragma once
// The flat gradient representation of the aggregation pipeline: one
// contiguous n_clients x dim float buffer, one row per client gradient.
// Every GAR, filter, clusterer and statistics kernel takes this one shape:
// a round's gradients live in a single allocation, rows are std::span
// views, and the matrix kernels in common/vecops.h iterate it with the
// thread pool from common/parallel.h. from_vectors() is the one import of
// a vector-of-vectors, for tests and examples.

#include <cstddef>
#include <span>
#include <vector>

namespace signguard::common {

class GradientMatrix {
 public:
  GradientMatrix() = default;

  // rows x cols, zero-initialised.
  GradientMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  // Single-copy imports of a vector-of-vectors or of borrowed row views
  // (e.g. rows of another matrix). Throw std::invalid_argument, in every
  // build mode, when the rows do not all share one dimension.
  static GradientMatrix from_vectors(
      std::span<const std::vector<float>> rows);
  static GradientMatrix from_views(
      std::span<const std::span<const float>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  std::span<float> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const float> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  float& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  float at(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // Reshapes to rows x cols, reusing the allocation when it is large
  // enough (per-round reuse in the trainer). Contents are unspecified
  // afterwards unless zeroed.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void fill_zero();

  // Borrowed per-row views, e.g. for an AttackContext over matrix rows.
  std::vector<std::span<const float>> row_views() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace signguard::common
