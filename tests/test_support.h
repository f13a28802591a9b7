#pragma once
// Shared test fixtures: literal gradient matrices and a synthetic attack
// round in the shape the trainer hands an attack.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "common/gradient_matrix.h"
#include "common/rng.h"

namespace signguard::test {

// A matrix from literal rows: matrix({{1, 2}, {3, 4}}).
inline common::GradientMatrix matrix(
    std::initializer_list<std::vector<float>> rows) {
  return common::GradientMatrix::from_vectors(rows);
}

// n x d, every coordinate `value`.
inline common::GradientMatrix constant_matrix(std::size_t n, std::size_t d,
                                              float value) {
  common::GradientMatrix m(n, d);
  std::fill(m.data(), m.data() + n * d, value);
  return m;
}

// n rows of i.i.d. N(mean, stddev^2) coordinates, one Rng draw per row.
inline common::GradientMatrix gaussian_matrix(std::size_t n, std::size_t d,
                                              double mean, double stddev,
                                              std::uint64_t seed) {
  Rng rng(seed);
  common::GradientMatrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = rng.normal_vector(d, mean, stddev);
    std::copy(row.begin(), row.end(), m.row(i).begin());
  }
  return m;
}

// One attack round: the benign and Byzantine-honest gradients, the row
// views over them and the AttackContext that borrows those views. Not
// copyable: ctx points into this object.
struct AttackRound {
  AttackRound(common::GradientMatrix benign_rows,
              common::GradientMatrix byz_rows, std::size_t n_total, Rng* rng)
      : benign(std::move(benign_rows)),
        byz(std::move(byz_rows)),
        benign_views(benign.row_views()),
        byz_views(byz.row_views()) {
    ctx.benign_grads = benign_views;
    ctx.byz_honest_grads = byz_views;
    ctx.n_total = n_total;
    ctx.n_byzantine = byz.rows();
    ctx.rng = rng;
  }
  AttackRound(const AttackRound&) = delete;
  AttackRound& operator=(const AttackRound&) = delete;

  common::GradientMatrix benign, byz;
  std::vector<attacks::GradientView> benign_views, byz_views;
  attacks::AttackContext ctx;
};

}  // namespace signguard::test
